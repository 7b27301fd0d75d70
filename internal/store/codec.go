package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"permchain/internal/statedb"
	"permchain/internal/types"
	"permchain/internal/wire"
)

// The on-disk codec, built on the shared wire primitives
// (internal/wire) so a block on disk and a transaction in flight spell
// their fields identically: deterministic (maps serialize in sorted key
// order), big-endian integers, length-prefixed variable fields.
// Identical logical content always produces identical bytes — and
// identical CRCs.

// codecVersion is the first byte of every encoded block and snapshot.
const codecVersion = 1

// corrupt maps wire decode failures onto the store's ErrCorrupt so
// callers keep one error to test for regardless of which layer caught
// the damage.
func corrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// EncodeBlock serializes a block, including each transaction's declared
// read/write sets — the XOV architecture re-validates them on replay, so
// they are part of the durable record.
func EncodeBlock(b *types.Block) []byte {
	e := &wire.Encoder{}
	e.U8(codecVersion)
	e.U64(b.Header.Height)
	e.Hash(b.Header.PrevHash)
	e.Hash(b.Header.TxRoot)
	e.I64(int64(b.Header.Proposer))
	e.U32(uint32(len(b.Txs)))
	for _, tx := range b.Txs {
		tx := tx
		wire.PutTx(e, &tx)
	}
	return e.Frame()
}

// DecodeBlock parses an EncodeBlock record and re-verifies that the
// header's Merkle root matches the decoded body — a record whose CRC
// passes but whose content was forged upstream still fails here.
func DecodeBlock(rec []byte) (*types.Block, error) {
	d := wire.NewDecoder(rec)
	if v := d.U8(); d.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("%w: block codec version %d, want %d", ErrCorrupt, v, codecVersion)
	}
	b := &types.Block{}
	b.Header.Height = d.U64()
	b.Header.PrevHash = d.Hash()
	b.Header.TxRoot = d.Hash()
	b.Header.Proposer = types.NodeID(d.I64())
	n := d.Count(8)
	b.Txs = slices.Grow(b.Txs, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var tx *types.Transaction
		wire.GetTx(d, &tx)
		b.Txs = append(b.Txs, tx)
	}
	if err := d.Done(); err != nil {
		return nil, corrupt(err)
	}
	if b.Header.TxRoot != types.TxMerkleRoot(b.Txs) {
		return nil, fmt.Errorf("%w: block %d merkle root does not match decoded body", ErrCorrupt, b.Header.Height)
	}
	return b, nil
}

// EncodeStateSnapshot serializes a statedb snapshot deterministically
// (entries are already sorted; history keys are sorted here).
func EncodeStateSnapshot(s *statedb.Snapshot) []byte {
	e := &wire.Encoder{}
	e.U8(codecVersion)
	e.U32(uint32(s.HistLimit))
	e.U32(uint32(len(s.Entries)))
	for _, ent := range s.Entries {
		e.Str(ent.Key)
		e.Bytes(ent.Value)
		e.U64(ent.Version.Block)
		e.I64(int64(ent.Version.Tx))
	}
	keys := make([]string, 0, len(s.Hist))
	for k := range s.Hist {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		h := s.Hist[k]
		e.U32(uint32(len(h)))
		for _, he := range h {
			e.U64(he.Version.Block)
			e.I64(int64(he.Version.Tx))
			e.Bytes(he.Value)
		}
	}
	return e.Frame()
}

// DecodeStateSnapshot parses an EncodeStateSnapshot record.
func DecodeStateSnapshot(rec []byte) (*statedb.Snapshot, error) {
	d := wire.NewDecoder(rec)
	if v := d.U8(); d.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("%w: snapshot codec version %d, want %d", ErrCorrupt, v, codecVersion)
	}
	s := &statedb.Snapshot{HistLimit: int(d.U32())}
	n := d.Count(8)
	for i := 0; i < n && d.Err() == nil; i++ {
		var ent statedb.Entry
		ent.Key = d.Str()
		ent.Value = d.Bytes()
		ent.Version = types.Version{Block: d.U64(), Tx: int(d.I64())}
		s.Entries = append(s.Entries, ent)
	}
	n = d.Count(8)
	if n > 0 && d.Err() == nil {
		s.Hist = make(map[string][]statedb.HistEntry, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		m := d.Count(8)
		var hs []statedb.HistEntry
		for j := 0; j < m && d.Err() == nil; j++ {
			var he statedb.HistEntry
			he.Version = types.Version{Block: d.U64(), Tx: int(d.I64())}
			he.Value = d.Bytes()
			hs = append(hs, he)
		}
		s.Hist[k] = hs
	}
	if err := d.Done(); err != nil {
		return nil, corrupt(err)
	}
	return s, nil
}
