package statedb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"permchain/internal/types"
)

// TestAtoi64MatchesDecodeInt pins the hand-rolled parser to the exact
// "DecodeInt, errors read as 0" semantics the int ops use.
func TestAtoi64MatchesDecodeInt(t *testing.T) {
	cases := []string{
		"", "0", "1", "-1", "+1", "42", "-42", "007",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809",
		"18446744073709551616123", "abc", "1a", "a1", "+", "-", "1.5",
		" 1", "1 ", "--1", "+-1", "1_000",
	}
	for _, c := range cases {
		want := int64(0)
		if n, err := DecodeInt([]byte(c)); err == nil {
			want = n
		}
		got, ok := atoi64([]byte(c))
		if !ok {
			got = 0
		}
		if got != want {
			t.Errorf("atoi64(%q) = %d, DecodeInt semantics give %d", c, got, want)
		}
	}
}

// randOps builds a random payload over a small key pool, occasionally
// including failing transfers, assertions, and unknown opcodes.
func randOps(rng *rand.Rand) []types.Op {
	keys := []string{"a", "b", "c", "d", "e"}
	n := 1 + rng.Intn(6)
	ops := make([]types.Op, n)
	for i := range ops {
		k := keys[rng.Intn(len(keys))]
		k2 := keys[rng.Intn(len(keys))]
		switch rng.Intn(12) {
		case 0, 1:
			ops[i] = types.Op{Code: types.OpGet, Key: k}
		case 2, 3:
			ops[i] = types.Op{Code: types.OpPut, Key: k, Value: []byte(strconv.Itoa(rng.Intn(100)))}
		case 4:
			// Junk value: the int ops must read it as 0.
			ops[i] = types.Op{Code: types.OpPut, Key: k, Value: []byte("junk")}
		case 5, 6, 7:
			ops[i] = types.Op{Code: types.OpAdd, Key: k, Delta: int64(rng.Intn(21) - 10)}
		case 8, 9:
			ops[i] = types.Op{Code: types.OpTransfer, Key: k, Key2: k2, Delta: int64(rng.Intn(30))}
		case 10:
			ops[i] = types.Op{Code: types.OpAssertGE, Key: k, Delta: int64(rng.Intn(30) - 5)}
		default:
			if rng.Intn(8) == 0 {
				ops[i] = types.Op{Code: types.OpCode(99), Key: k}
			} else {
				ops[i] = types.Op{Code: types.OpAdd, Key: k, Delta: math.MaxInt64}
			}
		}
	}
	return ops
}

// refResult is the outcome of refSimulate.
type refResult struct {
	reads  map[string]types.Version
	writes map[string][]byte
	err    error
}

// refSimulate is the reference executor SimulateList is checked against:
// the same semantics written with maps and closures, for clarity rather
// than allocation.
func refSimulate(r Reader, ops []types.Op) refResult {
	res := refResult{reads: map[string]types.Version{}, writes: map[string][]byte{}}
	read := func(key string) int64 {
		v, ok := res.writes[key]
		if !ok {
			var ver types.Version
			v, ver, _ = r.Get(key)
			if _, seen := res.reads[key]; !seen {
				res.reads[key] = ver
			}
		}
		n, err := DecodeInt(v)
		if err != nil {
			return 0
		}
		return n
	}
	fail := func(err error) refResult {
		res.writes, res.err = map[string][]byte{}, err
		return res
	}
	for _, op := range ops {
		switch op.Code {
		case types.OpGet:
			read(op.Key)
		case types.OpPut:
			res.writes[op.Key] = op.Value
		case types.OpAdd:
			res.writes[op.Key] = EncodeInt(read(op.Key) + op.Delta)
		case types.OpTransfer:
			from := read(op.Key)
			if from < op.Delta {
				return fail(fmt.Errorf("%w: %s has %d, need %d", ErrInsufficient, op.Key, from, op.Delta))
			}
			res.writes[op.Key] = EncodeInt(from - op.Delta)
			res.writes[op.Key2] = EncodeInt(read(op.Key2) + op.Delta)
		case types.OpAssertGE:
			if v := read(op.Key); v < op.Delta {
				return fail(fmt.Errorf("%w: %s = %d < %d", ErrAssertFailed, op.Key, v, op.Delta))
			}
		default:
			return fail(fmt.Errorf("statedb: unknown opcode %v", op.Code))
		}
	}
	return res
}

// refValidate is the reference MVCC check ValidateList is checked
// against: every read must see, through Get, the version it recorded (a
// missing key reads as the zero version).
func refValidate(r Reader, reads types.ReadList) bool {
	for _, rd := range reads {
		if _, ver, _ := r.Get(rd.Key); ver != rd.Ver {
			return false
		}
	}
	return true
}

// TestSimulateListEquivalence is the property test pinning SimulateList
// to refSimulate: for random states and random payloads, the recorded
// read set, write set, and error must be identical, and both lists must
// be canonical (sorted, unique keys).
func TestSimulateListEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := GetScratch()
	defer PutScratch(sc)
	for iter := 0; iter < 500; iter++ {
		s := New(WithShards(1 << rng.Intn(4)))
		for i, k := range []string{"a", "b", "c"} {
			if rng.Intn(2) == 0 {
				s.ApplyList(types.Version{Block: 1, Tx: i}, types.WriteList{{Key: k, Value: EncodeInt(int64(rng.Intn(50)))}})
			}
		}
		ops := randOps(rng)
		want := refSimulate(s, ops)
		reads, writes, err := SimulateList(s, ops, sc)

		if (err == nil) != (want.err == nil) {
			t.Fatalf("iter %d: err mismatch: list=%v ref=%v ops=%v", iter, err, want.err, ops)
		}
		if err != nil && err.Error() != want.err.Error() {
			t.Fatalf("iter %d: err text mismatch: list=%q ref=%q", iter, err, want.err)
		}
		gotR := map[string]types.Version{}
		for i, r := range reads {
			if i > 0 && reads[i-1].Key >= r.Key {
				t.Fatalf("iter %d: reads not canonical: %v", iter, reads)
			}
			gotR[r.Key] = r.Ver
		}
		if !reflect.DeepEqual(gotR, want.reads) {
			t.Fatalf("iter %d: reads mismatch: list=%v ref=%v ops=%v", iter, gotR, want.reads, ops)
		}
		gotW := map[string]string{}
		for i, w := range writes {
			if i > 0 && writes[i-1].Key >= w.Key {
				t.Fatalf("iter %d: writes not canonical: %v", iter, writes)
			}
			gotW[w.Key] = string(w.Value)
		}
		wantW := map[string]string{}
		for k, v := range want.writes {
			wantW[k] = string(v)
		}
		if !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("iter %d: writes mismatch: list=%v ref=%v ops=%v", iter, gotW, wantW, ops)
		}
	}
}

// TestExecuteListEquivalence commits random payloads through ExecuteList
// and through refSimulate on twin stores and requires identical state
// hashes throughout.
func TestExecuteListEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	a, b := New(), New()
	sc := GetScratch()
	defer PutScratch(sc)
	for i := 0; i < 200; i++ {
		ops := randOps(rng)
		ver := types.Version{Block: uint64(i + 1)}
		resA := refSimulate(a, ops)
		if resA.err == nil {
			for k, v := range resA.writes {
				a.ApplyList(ver, types.WriteList{{Key: k, Value: v}})
			}
		}
		_, _, errB := b.ExecuteList(ver, ops, sc)
		if (resA.err == nil) != (errB == nil) {
			t.Fatalf("iter %d: outcome mismatch: ref=%v list=%v", i, resA.err, errB)
		}
		if a.StateHash() != b.StateHash() {
			t.Fatalf("iter %d: state diverged after ops %v", i, ops)
		}
	}
}

// TestSimulateListReadYourWrites: a buffered write is read back without
// touching the store or the read set.
func TestSimulateListReadYourWrites(t *testing.T) {
	s := New()
	sc := GetScratch()
	defer PutScratch(sc)
	reads, writes, err := SimulateList(s, []types.Op{
		{Code: types.OpPut, Key: "k", Value: EncodeInt(5)},
		{Code: types.OpAdd, Key: "k", Delta: 2},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := writes.Get("k"); !ok || string(v) != "7" {
		t.Fatalf("writes = %v, want k=7", writes)
	}
	// The read of k was satisfied from the write buffer: not a read.
	if len(reads) != 0 {
		t.Fatalf("reads = %v, want empty", reads)
	}
}

// TestSimulateListRecordsMissingAsZero checks first-read-wins recording
// of Version{} for keys that do not exist.
func TestSimulateListRecordsMissingAsZero(t *testing.T) {
	s := New()
	sc := GetScratch()
	defer PutScratch(sc)
	reads, _, err := SimulateList(s, []types.Op{
		{Code: types.OpGet, Key: "ghost"},
		{Code: types.OpGet, Key: "ghost"},
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 {
		t.Fatalf("reads = %v, want one entry", reads)
	}
	if ver, ok := reads.Get("ghost"); !ok || ver != (types.Version{}) {
		t.Fatalf("ghost recorded as %v, want zero version", ver)
	}
	if !s.ValidateList(reads) {
		t.Fatal("zero-version read of a missing key must validate")
	}
}

// TestSimulateListFailureClearsWrites checks that a failing payload
// keeps its reads and drops its writes.
func TestSimulateListFailureClearsWrites(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "alice", Value: EncodeInt(10)}})
	sc := GetScratch()
	defer PutScratch(sc)
	reads, writes, err := SimulateList(s, []types.Op{
		{Code: types.OpPut, Key: "x", Value: []byte("v")},
		{Code: types.OpTransfer, Key: "alice", Key2: "bob", Delta: 30},
	}, sc)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if len(writes) != 0 {
		t.Fatalf("writes = %v, want empty after failure", writes)
	}
	if _, ok := reads.Get("alice"); !ok {
		t.Fatalf("reads = %v, want alice recorded", reads)
	}
}

// TestValidateListMatchesValidate pins ValidateList to refValidate on
// fresh, stale, and ghost reads.
func TestValidateListMatchesValidate(t *testing.T) {
	s := New()
	v1 := types.Version{Block: 1, Tx: 0}
	s.ApplyList(v1, types.WriteList{{Key: "a", Value: []byte("x")}})
	cases := []types.ReadList{
		{{Key: "a", Ver: v1}},
		{{Key: "a", Ver: types.Version{Block: 9}}},
		{{Key: "ghost"}},
		{{Key: "ghost", Ver: v1}},
		{{Key: "a", Ver: v1}, {Key: "ghost"}},
		{{Key: "a"}, {Key: "ghost"}},
	}
	for _, rs := range cases {
		if got, want := s.ValidateList(rs), refValidate(s, rs); got != want {
			t.Errorf("ValidateList(%v) = %v, reference = %v", rs, got, want)
		}
	}
}

// maxSimulateAllocs bounds SimulateList's allocations per transaction on
// TestListPathAllocsDrop's payload: one encoded integer per
// read-modify-write op, nothing for the read and write sets.
const maxSimulateAllocs = 2

// TestListPathAllocsDrop is the allocation gate on the executor:
// steady-state SimulateList with a reused scratch makes at most
// maxSimulateAllocs allocations on a 5-op payload. (The map executor it
// replaced made 6.)
func TestListPathAllocsDrop(t *testing.T) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "a", Value: EncodeInt(10)}, {Key: "b", Value: EncodeInt(20)}})
	ops := []types.Op{
		{Code: types.OpGet, Key: "a"},
		{Code: types.OpGet, Key: "b"},
		{Code: types.OpAdd, Key: "a", Delta: 1},
		{Code: types.OpAdd, Key: "b", Delta: 2},
		{Code: types.OpGet, Key: "c"},
	}
	sc := GetScratch()
	defer PutScratch(sc)
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := SimulateList(s, ops, sc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: %.1f", allocs)
	if allocs > maxSimulateAllocs {
		t.Fatalf("SimulateList allocates %.1f/op, want ≤ %d", allocs, maxSimulateAllocs)
	}
}

func BenchmarkSimulateList(b *testing.B) {
	s := New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{{Key: "a", Value: EncodeInt(10)}, {Key: "b", Value: EncodeInt(20)}})
	ops := []types.Op{
		{Code: types.OpGet, Key: "a"},
		{Code: types.OpAdd, Key: "a", Delta: 1},
		{Code: types.OpAdd, Key: "b", Delta: 2},
	}
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SimulateList(s, ops, sc)
	}
}
