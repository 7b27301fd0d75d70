package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestHashBytesDeterministic(t *testing.T) {
	a := HashBytes([]byte("hello"))
	b := HashBytes([]byte("hello"))
	if a != b {
		t.Fatalf("same input hashed differently: %v vs %v", a, b)
	}
	if a == HashBytes([]byte("world")) {
		t.Fatal("different inputs collided")
	}
	if a.IsZero() {
		t.Fatal("non-empty hash reported zero")
	}
	if !ZeroHash.IsZero() {
		t.Fatal("ZeroHash not zero")
	}
}

func TestHashConcatLengthPrefixed(t *testing.T) {
	// ("ab","c") and ("a","bc") must not collide: the length prefix makes
	// the encoding unambiguous.
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("ambiguous concatenation: (ab,c) == (a,bc)")
	}
}

func TestHashStringForms(t *testing.T) {
	h := HashBytes([]byte("x"))
	if len(h.Hex()) != 64 {
		t.Fatalf("Hex length = %d, want 64", len(h.Hex()))
	}
	if len(h.String()) != 8 {
		t.Fatalf("String length = %d, want 8", len(h.String()))
	}
	if h.Hex()[:8] != h.String() {
		t.Fatal("String is not a prefix of Hex")
	}
}

func TestVersionLess(t *testing.T) {
	cases := []struct {
		a, b Version
		want bool
	}{
		{Version{1, 0}, Version{2, 0}, true},
		{Version{2, 0}, Version{1, 5}, false},
		{Version{1, 1}, Version{1, 2}, true},
		{Version{1, 2}, Version{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOpKeys(t *testing.T) {
	tr := Op{Code: OpTransfer, Key: "a", Key2: "b"}
	if got := tr.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("transfer keys = %v", got)
	}
	g := Op{Code: OpGet, Key: "a"}
	if got := g.Keys(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("get keys = %v", got)
	}
}

func tx(id string, ops ...Op) *Transaction {
	return &Transaction{ID: id, Ops: ops}
}

func TestTransactionHashSensitivity(t *testing.T) {
	base := tx("t1", Op{Code: OpPut, Key: "k", Value: []byte("v")})
	same := tx("t1", Op{Code: OpPut, Key: "k", Value: []byte("v")})
	if base.Hash() != same.Hash() {
		t.Fatal("identical transactions hashed differently")
	}
	mutants := []*Transaction{
		tx("t2", Op{Code: OpPut, Key: "k", Value: []byte("v")}),
		tx("t1", Op{Code: OpPut, Key: "k2", Value: []byte("v")}),
		tx("t1", Op{Code: OpPut, Key: "k", Value: []byte("w")}),
		tx("t1", Op{Code: OpGet, Key: "k", Value: []byte("v")}),
		{ID: "t1", Ops: base.Ops, Private: true},
		{ID: "t1", Ops: base.Ops, Kind: TxCross},
		{ID: "t1", Ops: base.Ops, Shards: []ShardID{1}},
	}
	for i, m := range mutants {
		if m.Hash() == base.Hash() {
			t.Errorf("mutant %d hashed equal to base", i)
		}
	}
}

// hashGoldenTxs covers the preimage's shapes: ops only; shards, enterprise,
// kind and the private flag; a 256-byte value; and values too large for
// Hash's stack buffer.
func hashGoldenTxs() []*Transaction {
	return []*Transaction{
		{ID: "tx-ops", Client: 3, Ops: []Op{
			{Code: OpAdd, Key: "acct/7", Delta: -12},
			{Code: OpTransfer, Key: "a", Key2: "b", Delta: 5},
			{Code: OpGet, Key: "acct/9"},
		}},
		{ID: "tx-cross", Client: 1, Enterprise: 2, Kind: TxCross, Shards: []ShardID{0, 3},
			Ops: []Op{{Code: OpPut, Key: "s0/k", Value: []byte("v")}}, Private: true},
		{ID: "tx-big", Ops: []Op{{Code: OpPut, Key: "blob", Value: bytes.Repeat([]byte{0xab}, 256)}}},
		{ID: "tx-spill", Client: 2, Ops: []Op{
			{Code: OpPut, Key: "blob/a", Value: bytes.Repeat([]byte{0x5a}, 1024)},
			{Code: OpPut, Key: "blob/b", Value: bytes.Repeat([]byte{0xa5}, 1024)},
		}},
	}
}

// TestTransactionHashGolden pins the digests: they name transactions on
// the wire, in Merkle roots and in every stored block, so the preimage
// layout must never drift.
func TestTransactionHashGolden(t *testing.T) {
	want := []string{
		"4a22557652d303216cb2717fb63f770a16fbe3bdfc9783dbec557c4f3fbcfcaf",
		"214832c7c84afc71dc8c8809c752bcca0dd4beff798192b551029be367acd624",
		"a72a3041fa51c2d18d67cd940566d42aa3c6d0b65ec9e9a0212597ce4c0afdff",
		"9e5ed56422858dd2eb2a7ab2bb25bf507740a12e8f42031c380786ce464925f2",
	}
	for i, tx := range hashGoldenTxs() {
		h := tx.Hash()
		if got := hex.EncodeToString(h[:]); got != want[i] {
			t.Errorf("tx %s: hash %s, want %s", tx.ID, got, want[i])
		}
	}
}

// TestTransactionHashAllocFree covers the largest shape the benchmark
// submits: 4 adds, 2 puts of 256-byte values and 2 gets.
func TestTransactionHashAllocFree(t *testing.T) {
	tx := &Transaction{ID: "steady-123456"}
	for i := 0; i < 4; i++ {
		tx.Ops = append(tx.Ops, Op{Code: OpAdd, Key: fmt.Sprintf("k%05d", i), Delta: 1})
	}
	for i := 0; i < 2; i++ {
		tx.Ops = append(tx.Ops, Op{Code: OpPut, Key: fmt.Sprintf("v%05d", i), Value: make([]byte, 256)})
		tx.Ops = append(tx.Ops, Op{Code: OpGet, Key: fmt.Sprintf("k%05d", i)})
	}
	if n := testing.AllocsPerRun(200, func() { _ = tx.Hash() }); n != 0 {
		t.Errorf("Transaction.Hash allocates %.1f/op, want 0", n)
	}
}

func BenchmarkTransactionHash(b *testing.B) {
	tx := hashGoldenTxs()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tx.Hash()
	}
}

func TestTransactionHashIgnoresRWSets(t *testing.T) {
	a := tx("t", Op{Code: OpGet, Key: "k"})
	b := tx("t", Op{Code: OpGet, Key: "k"})
	b.Reads = ReadList{{Key: "k", Ver: Version{Block: 3, Tx: 1}}}
	b.Writes = WriteList{{Key: "k", Value: []byte("x")}}
	if a.Hash() != b.Hash() {
		t.Fatal("hash should not depend on endorsement-filled rw-sets")
	}
}

func TestTouchedKeys(t *testing.T) {
	tr := tx("t",
		Op{Code: OpTransfer, Key: "b", Key2: "a"},
		Op{Code: OpGet, Key: "c"},
		Op{Code: OpGet, Key: "a"},
	)
	got := tr.TouchedKeys()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("TouchedKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TouchedKeys = %v, want %v", got, want)
		}
	}
}

// rwTx builds a transaction whose canonical rw sets hold the given keys
// (duplicates collapse, as in a set).
func rwTx(reads, writes []string) *Transaction {
	set := func(keys []string) []string {
		keys = slices.Clone(keys)
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	tr := &Transaction{}
	for _, k := range set(reads) {
		tr.Reads = append(tr.Reads, ReadItem{Key: k})
	}
	for _, k := range set(writes) {
		tr.Writes = append(tr.Writes, WriteItem{Key: k})
	}
	return tr
}

func TestConflictsWith(t *testing.T) {
	mk := rwTx
	cases := []struct {
		name string
		a, b *Transaction
		want bool
	}{
		{"read-read no conflict", mk([]string{"k"}, nil), mk([]string{"k"}, nil), false},
		{"write-write conflict", mk(nil, []string{"k"}), mk(nil, []string{"k"}), true},
		{"my write their read", mk(nil, []string{"k"}), mk([]string{"k"}, nil), true},
		{"my read their write", mk([]string{"k"}, nil), mk(nil, []string{"k"}), true},
		{"disjoint", mk([]string{"a"}, []string{"b"}), mk([]string{"c"}, []string{"d"}), false},
	}
	for _, c := range cases {
		if got := c.a.ConflictsWith(c.b); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
		// Conflict is symmetric.
		if got := c.b.ConflictsWith(c.a); got != c.want {
			t.Errorf("%s (reversed): got %v want %v", c.name, got, c.want)
		}
	}
}

func TestConflictSymmetryProperty(t *testing.T) {
	f := func(ra, wa, rb, wb []string) bool {
		a, b := rwTx(ra, wa), rwTx(rb, wb)
		return a.ConflictsWith(b) == b.ConflictsWith(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewBlockRootMatchesBody(t *testing.T) {
	txs := []*Transaction{tx("a"), tx("b"), tx("c")}
	b := NewBlock(1, ZeroHash, 0, txs)
	if b.Header.TxRoot != TxMerkleRoot(txs) {
		t.Fatal("header root does not match body")
	}
	if b.Header.Height != 1 {
		t.Fatalf("height = %d", b.Header.Height)
	}
}

func TestTxMerkleRootProperties(t *testing.T) {
	if TxMerkleRoot(nil) != ZeroHash {
		t.Fatal("empty block root should be zero")
	}
	one := []*Transaction{tx("a")}
	if TxMerkleRoot(one).IsZero() {
		t.Fatal("single-tx root should not be zero")
	}
	// Order matters.
	ab := TxMerkleRoot([]*Transaction{tx("a"), tx("b")})
	ba := TxMerkleRoot([]*Transaction{tx("b"), tx("a")})
	if ab == ba {
		t.Fatal("root should depend on transaction order")
	}
	// Content matters.
	ab2 := TxMerkleRoot([]*Transaction{tx("a"), tx("b2")})
	if ab == ab2 {
		t.Fatal("root should depend on transaction content")
	}
	// Odd counts work.
	for n := 1; n <= 9; n++ {
		txs := make([]*Transaction, n)
		for i := range txs {
			txs[i] = tx(fmt.Sprintf("t%d", i))
		}
		if TxMerkleRoot(txs).IsZero() {
			t.Fatalf("n=%d root zero", n)
		}
	}
}

func TestBlockHashChangesWithHeader(t *testing.T) {
	txs := []*Transaction{tx("a")}
	b1 := NewBlock(1, ZeroHash, 0, txs)
	b2 := NewBlock(2, ZeroHash, 0, txs)
	b3 := NewBlock(1, b1.Hash(), 0, txs)
	b4 := NewBlock(1, ZeroHash, 1, txs)
	if b1.Hash() == b2.Hash() || b1.Hash() == b3.Hash() || b1.Hash() == b4.Hash() {
		t.Fatal("header fields not reflected in block hash")
	}
}

func TestStringers(t *testing.T) {
	if NodeID(3).String() != "n3" {
		t.Fatal("NodeID stringer")
	}
	if EnterpriseID(2).String() != "e2" {
		t.Fatal("EnterpriseID stringer")
	}
	if ShardID(1).String() != "s1" {
		t.Fatal("ShardID stringer")
	}
	if TxInternal.String() != "internal" || TxCross.String() != "cross" {
		t.Fatal("TxKind stringer")
	}
	if (Version{3, 2}).String() != "3.2" {
		t.Fatal("Version stringer")
	}
	for op, want := range map[OpCode]string{OpGet: "get", OpPut: "put", OpAdd: "add", OpTransfer: "transfer", OpAssertGE: "assert>="} {
		if op.String() != want {
			t.Fatalf("OpCode %d stringer = %q", op, op.String())
		}
	}
}
