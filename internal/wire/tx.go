package wire

import (
	"slices"
	"sync"

	"permchain/internal/types"
)

// The transaction codec is shared by the durable block record
// (internal/store) and the network transport's batch proposals
// (internal/core), so a transaction spells its fields identically on
// disk and in flight. Read/write sets are serialized in sorted key
// order — they are part of the durable record (XOV re-validates them
// on replay) and determinism keeps CRCs content-addressed. A list is
// encoded as it stands, so the decoder rejects keys that are not
// strictly increasing: a duplicated or out-of-order key is a second
// spelling of a set, never a valid frame.

// TxCodec (tag 16) carries a single transaction pointer.
var TxCodec = Register[*types.Transaction](16, PutTx, GetTx)

var txPool = sync.Pool{New: func() any { return &types.Transaction{} }}

// AcquireTx returns a pooled transaction for bounded-lifetime decode
// work (validation, digesting, benchmarks). Transactions that flow
// into blocks or ledgers live forever — never pool those.
func AcquireTx() *types.Transaction {
	return txPool.Get().(*types.Transaction)
}

// ReleaseTx recycles tx: scalar fields are zeroed, the Ops, Shards,
// Reads and Writes slices keep their capacity for the next decode.
func ReleaseTx(tx *types.Transaction) {
	if tx == nil {
		return
	}
	*tx = types.Transaction{Ops: tx.Ops[:0], Shards: tx.Shards[:0], Reads: tx.Reads[:0], Writes: tx.Writes[:0]}
	txPool.Put(tx)
}

// PutOp appends one operation.
func PutOp(e *Encoder, op *types.Op) {
	e.U8(byte(op.Code))
	e.Str(op.Key)
	e.Str(op.Key2)
	e.Bytes(op.Value)
	e.I64(op.Delta)
}

// GetOp reads one operation.
func GetOp(d *Decoder, op *types.Op) {
	op.Code = types.OpCode(d.U8())
	op.Key = d.Str()
	op.Key2 = d.Str()
	op.Value = d.Bytes()
	op.Delta = d.I64()
}

// PutTx appends a full transaction, including its declared read/write
// sets.
func PutTx(e *Encoder, txp **types.Transaction) {
	tx := *txp
	e.Str(tx.ID)
	e.I64(int64(tx.Client))
	e.I64(int64(tx.Enterprise))
	e.U8(byte(tx.Kind))
	e.U32(uint32(len(tx.Shards)))
	for _, s := range tx.Shards {
		e.I64(int64(s))
	}
	e.U32(uint32(len(tx.Ops)))
	for i := range tx.Ops {
		PutOp(e, &tx.Ops[i])
	}
	e.U32(uint32(len(tx.Reads)))
	for i := range tx.Reads {
		e.Str(tx.Reads[i].Key)
		e.U64(tx.Reads[i].Ver.Block)
		e.I64(int64(tx.Reads[i].Ver.Tx))
	}
	e.U32(uint32(len(tx.Writes)))
	for i := range tx.Writes {
		e.Str(tx.Writes[i].Key)
		e.Bytes(tx.Writes[i].Value)
	}
	e.Bool(tx.Private)
}

// GetTx reads a transaction into *txp, allocating one when nil. A
// recycled transaction's Shards, Ops, Reads and Writes slices are reused.
func GetTx(d *Decoder, txp **types.Transaction) {
	tx := *txp
	if tx == nil {
		tx = &types.Transaction{}
		*txp = tx
	}
	tx.ID = d.Str()
	tx.Client = types.NodeID(d.I64())
	tx.Enterprise = types.EnterpriseID(d.I64())
	tx.Kind = types.TxKind(d.U8())
	n := d.Count(8)
	tx.Shards = tx.Shards[:0]
	for i := 0; i < n && d.err == nil; i++ {
		tx.Shards = append(tx.Shards, types.ShardID(d.I64()))
	}
	if len(tx.Shards) == 0 {
		tx.Shards = nil
	}
	n = d.Count(8)
	tx.Ops = slices.Grow(tx.Ops[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		var op types.Op
		GetOp(d, &op)
		tx.Ops = append(tx.Ops, op)
	}
	if len(tx.Ops) == 0 {
		tx.Ops = nil
	}
	n = d.Count(8)
	tx.Reads = slices.Grow(tx.Reads[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Str()
		if i > 0 && k <= tx.Reads[i-1].Key {
			d.fail() // keys must be strictly increasing
		}
		tx.Reads = append(tx.Reads, types.ReadItem{Key: k, Ver: types.Version{Block: d.U64(), Tx: int(d.I64())}})
	}
	if len(tx.Reads) == 0 {
		tx.Reads = nil
	}
	n = d.Count(8)
	tx.Writes = slices.Grow(tx.Writes[:0], n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Str()
		if i > 0 && k <= tx.Writes[i-1].Key {
			d.fail()
		}
		tx.Writes = append(tx.Writes, types.WriteItem{Key: k, Value: d.Bytes()})
	}
	if len(tx.Writes) == 0 {
		tx.Writes = nil
	}
	tx.Private = d.Bool()
}
