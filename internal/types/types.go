// Package types defines the data model shared by every layer of permchain:
// transactions and their read/write sets, blocks, and the identity types
// for nodes, enterprises, channels, and shards.
//
// The model follows §2.2 of the SIGMOD'21 tutorial: a transaction carries a
// deterministic sequence of key-value operations; a block batches
// transactions and chains to its predecessor by cryptographic hash.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Hash is a SHA-256 digest. The zero value means "no hash".
type Hash [32]byte

// ZeroHash is the absent hash (e.g. the parent of a genesis block).
var ZeroHash Hash

// String returns the first 8 hex characters, enough for logs.
func (h Hash) String() string { return hex.EncodeToString(h[:4]) }

// Hex returns the full 64-character hex encoding.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether h is the absent hash.
func (h Hash) IsZero() bool { return h == ZeroHash }

// HashBytes digests b with SHA-256.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// HashConcat digests the concatenation of the given byte slices, each
// prefixed with its length so the encoding is unambiguous.
func HashConcat(parts ...[]byte) Hash {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// NodeID identifies a consensus replica or peer.
type NodeID int

// String renders the id as "n<k>". It is on hot logging and metric-name
// paths, so it concatenates via strconv instead of fmt (one allocation
// for the result instead of fmt's boxing plus formatting state).
func (n NodeID) String() string { return "n" + strconv.Itoa(int(n)) }

// EnterpriseID identifies an enterprise (organization) in a collaborative
// application (§2.3.1). Enterprise 0 is reserved for "no enterprise".
type EnterpriseID int

// String renders the id as "e<k>".
func (e EnterpriseID) String() string { return "e" + strconv.Itoa(int(e)) }

// ChannelID identifies a Fabric-style channel (§2.3.1).
type ChannelID string

// ShardID identifies a data shard / cluster (§2.3.4).
type ShardID int

// String renders the id as "s<k>".
func (s ShardID) String() string { return "s" + strconv.Itoa(int(s)) }

// TxKind distinguishes where a transaction must be ordered and who may see
// it (§2.3.1): internal transactions stay inside one enterprise or shard,
// cross transactions span several.
type TxKind int

const (
	// TxInternal is ordered and executed by a single enterprise or shard.
	TxInternal TxKind = iota
	// TxCross spans enterprises or shards and needs global agreement.
	TxCross
)

// String names the kind.
func (k TxKind) String() string {
	switch k {
	case TxInternal:
		return "internal"
	case TxCross:
		return "cross"
	default:
		return fmt.Sprintf("TxKind(%d)", int(k))
	}
}

// OpCode enumerates the deterministic operations a transaction may perform
// against the key-value world state. This small language replaces the
// chaincode/EVM of the surveyed systems (see DESIGN.md, Substitutions);
// every technique the tutorial compares acts on the read/write sets these
// operations induce, not on richer language semantics.
type OpCode int

const (
	// OpGet reads Key into the transaction's read set.
	OpGet OpCode = iota
	// OpPut writes Value to Key.
	OpPut
	// OpAdd reads Key as an integer and adds Delta (read-modify-write).
	OpAdd
	// OpTransfer moves Delta from Key to Key2, failing the transaction if
	// the balance at Key would go negative.
	OpTransfer
	// OpAssertGE reads Key as an integer and fails the transaction unless
	// the value is >= Delta. Used for constraint checks (e.g. SLAs).
	OpAssertGE
)

// String names the opcode.
func (o OpCode) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpAdd:
		return "add"
	case OpTransfer:
		return "transfer"
	case OpAssertGE:
		return "assert>="
	default:
		return fmt.Sprintf("OpCode(%d)", int(o))
	}
}

// Op is one operation in a transaction payload.
type Op struct {
	Code  OpCode
	Key   string
	Key2  string // second key for OpTransfer
	Value []byte // value for OpPut
	Delta int64  // amount for OpAdd/OpTransfer/OpAssertGE
}

// Keys returns every key the operation touches.
func (o Op) Keys() []string {
	if o.Code == OpTransfer {
		return []string{o.Key, o.Key2}
	}
	return []string{o.Key}
}

// Version locates a committed value: the block that wrote it and the
// transaction's index within that block. Fabric-style MVCC validation
// (§2.3.3) compares these versions.
type Version struct {
	Block uint64
	Tx    int
}

// Less orders versions by block, then transaction index.
func (v Version) Less(o Version) bool {
	if v.Block != o.Block {
		return v.Block < o.Block
	}
	return v.Tx < o.Tx
}

// String renders the version as "<block>.<tx>".
func (v Version) String() string {
	return strconv.FormatUint(v.Block, 10) + "." + strconv.Itoa(v.Tx)
}

// Transaction is the unit of work clients submit. Ops is the deterministic
// payload. For the execute-first (XOV) architecture, endorsement fills in
// Reads and Writes before ordering; order-first architectures leave them
// empty and execute Ops after consensus.
type Transaction struct {
	ID         string
	Client     NodeID
	Enterprise EnterpriseID
	Kind       TxKind
	// Shards lists every shard the transaction touches (len>1 ⇒ cross-shard).
	Shards []ShardID
	Ops    []Op

	// Reads and Writes are the simulated read/write sets produced by
	// endorsement in XOV (§2.3.3), sorted by key with unique keys; nil
	// until filled. OXII's dependency graph does not read them: it derives
	// declared sets from Ops (arch.DeclaredRW).
	Reads  ReadList
	Writes WriteList

	// Private marks the payload as confidential: only the hash goes on the
	// shared ledger (private data collections, Quorum private txns).
	Private bool
}

// Hash digests the transaction's identity and payload (not its volatile
// read/write sets, which differ per endorsement). The preimage is built in
// a stack buffer and hashed in one call. The buffer holds a transaction of
// eight ops with two 256-byte values; a larger one spills to the heap with
// the same digest.
func (t *Transaction) Hash() Hash {
	var stack [1024]byte
	b := appendSized(stack[:0], t.ID)
	b = binary.BigEndian.AppendUint64(b, uint64(t.Client))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Enterprise))
	b = binary.BigEndian.AppendUint64(b, uint64(t.Kind))
	for _, s := range t.Shards {
		b = binary.BigEndian.AppendUint64(b, uint64(s))
	}
	for _, op := range t.Ops {
		b = binary.BigEndian.AppendUint64(b, uint64(op.Code))
		b = appendSized(b, op.Key)
		b = appendSized(b, op.Key2)
		b = appendSized(b, op.Value)
		b = binary.BigEndian.AppendUint64(b, uint64(op.Delta))
	}
	if t.Private {
		b = append(b, 1)
	}
	return sha256.Sum256(b)
}

// appendSized appends v prefixed with its length as a big-endian uint64.
func appendSized[T string | []byte](b []byte, v T) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(v)))
	return append(b, v...)
}

// TouchedKeys returns the sorted set of keys named by the payload.
func (t *Transaction) TouchedKeys() []string {
	seen := map[string]struct{}{}
	for _, op := range t.Ops {
		for _, k := range op.Keys() {
			seen[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ConflictsWith reports whether two transactions have a read-write or
// write-write conflict on their declared read/write sets. Both OXII
// dependency graphs and Fabric++ reordering are built on this predicate.
func (t *Transaction) ConflictsWith(o *Transaction) bool {
	for i := range t.Writes {
		k := t.Writes[i].Key
		if _, ok := o.Writes.Get(k); ok {
			return true
		}
		if _, ok := o.Reads.Get(k); ok {
			return true
		}
	}
	for i := range t.Reads {
		if _, ok := o.Writes.Get(t.Reads[i].Key); ok {
			return true
		}
	}
	return false
}

// String renders a short description for logs.
func (t *Transaction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tx(%s %s", t.ID, t.Kind)
	if len(t.Shards) > 0 {
		fmt.Fprintf(&b, " shards=%v", t.Shards)
	}
	fmt.Fprintf(&b, " ops=%d)", len(t.Ops))
	return b.String()
}

// BlockHeader chains a block to its predecessor and commits to its body
// via a Merkle root over transaction hashes.
type BlockHeader struct {
	Height   uint64
	PrevHash Hash
	TxRoot   Hash
	Proposer NodeID
}

// Hash digests the header.
func (h *BlockHeader) Hash() Hash {
	var buf [8 + 32 + 32 + 8]byte
	binary.BigEndian.PutUint64(buf[0:], h.Height)
	copy(buf[8:], h.PrevHash[:])
	copy(buf[40:], h.TxRoot[:])
	binary.BigEndian.PutUint64(buf[72:], uint64(h.Proposer))
	return HashBytes(buf[:])
}

// Block batches transactions. Blocks are immutable once built; use
// NewBlock so the Merkle root matches the body.
type Block struct {
	Header BlockHeader
	Txs    []*Transaction
}

// NewBlock assembles a block at the given height on top of prev, computing
// the transaction Merkle root.
func NewBlock(height uint64, prev Hash, proposer NodeID, txs []*Transaction) *Block {
	return &Block{
		Header: BlockHeader{
			Height:   height,
			PrevHash: prev,
			TxRoot:   TxMerkleRoot(txs),
			Proposer: proposer,
		},
		Txs: txs,
	}
}

// Hash returns the header hash, which identifies the block.
func (b *Block) Hash() Hash { return b.Header.Hash() }

// TxMerkleRoot computes the Merkle root over the transactions' hashes.
// An empty block has root ZeroHash.
func TxMerkleRoot(txs []*Transaction) Hash {
	if len(txs) == 0 {
		return ZeroHash
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.Hash()
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, HashConcat(level[i][:], level[i+1][:]))
			} else {
				// Odd node is promoted by hashing with itself, the usual
				// duplication rule.
				next = append(next, HashConcat(level[i][:], level[i][:]))
			}
		}
		level = next
	}
	return level[0]
}
