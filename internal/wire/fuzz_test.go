package wire

import (
	"errors"
	"reflect"
	"testing"

	"permchain/internal/types"
)

// FuzzDecodeFrame drives arbitrary bytes through the generic frame
// decoder: it must never panic, and every failure must be ErrCorrupt —
// the same discipline store decoding follows. Seed corpus covers valid
// frames for each builtin plus the transaction codec so the fuzzer
// starts from structurally interesting inputs.
func FuzzDecodeFrame(f *testing.F) {
	seed := []any{
		"pbft/prepare", []byte{0xde, 0xad}, true, int(-1), int64(1 << 33),
		uint64(42), types.HashBytes([]byte("seed")), nil, sampleTx(),
	}
	for _, v := range seed {
		e := &Encoder{}
		if err := EncodeFrame(e, v); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), e.Frame()...))
	}
	f.Add([]byte{})
	f.Add([]byte{FrameVersion})
	f.Add([]byte{FrameVersion, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, frame []byte) {
		v, err := DecodeFrame(frame) // must not panic on any input
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		// A clean decode must re-encode; byte-identity is not required
		// (a fuzzer can find a second spelling), but value round-trip is.
		e := GetEncoder()
		defer PutEncoder(e)
		if err := EncodeFrame(e, v); err != nil {
			t.Fatalf("re-encode of decoded value failed: %v", err)
		}
		v2, err := DecodeFrame(e.Frame())
		if err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("round trip diverged:\nfirst  %#v\nsecond %#v", v, v2)
		}
	})
}

// FuzzTxRoundTrip fuzzes transaction field content through the typed
// codec: encode→decode→encode must be byte-identical (the durable-store
// determinism property). With rw set, the transaction also carries a
// one-entry read list on key and a one-entry write list on key2.
func FuzzTxRoundTrip(f *testing.F) {
	f.Add("tx-1", int64(1), int64(2), uint8(0), "k1", "k2", []byte("v"), int64(5), true, false)
	f.Add("", int64(-1), int64(0), uint8(3), "", "", []byte{}, int64(-9), false, false)
	f.Add("tx-rw", int64(4), int64(1), uint8(1), "acct/a", "acct/b", []byte("42"), int64(7), false, true)
	f.Fuzz(func(t *testing.T, id string, client, ent int64, kind uint8,
		key, key2 string, value []byte, delta int64, private, rw bool) {
		if len(value) == 0 {
			value = nil // empty decodes as nil; normalize for DeepEqual
		}
		tx := &types.Transaction{
			ID:         id,
			Client:     types.NodeID(client),
			Enterprise: types.EnterpriseID(ent),
			Kind:       types.TxKind(kind % 3),
			Ops:        []types.Op{{Code: types.OpCode(kind % 5), Key: key, Key2: key2, Value: value, Delta: delta}},
			Private:    private,
		}
		if rw {
			tx.Reads = types.ReadList{{Key: key, Ver: types.Version{Block: uint64(delta), Tx: int(client)}}}
			tx.Writes = types.WriteList{{Key: key2, Value: value}}
		}
		e1 := &Encoder{}
		TxCodec.EncodeFrame(e1, &tx)
		var got *types.Transaction
		if err := TxCodec.DecodeFrameInto(e1.Frame(), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tx) {
			t.Fatalf("tx round trip:\ngot  %#v\nwant %#v", got, tx)
		}
		e2 := &Encoder{}
		TxCodec.EncodeFrame(e2, &got)
		if string(e1.Frame()) != string(e2.Frame()) {
			t.Fatalf("re-encode not byte-identical")
		}
	})
}
