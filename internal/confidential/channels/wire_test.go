package channels

import (
	"reflect"
	"testing"

	"permchain/internal/types"
	"permchain/internal/wire"
)

// TestEnvelopeRoundTrip pins the envelope codec: a channel-tagged,
// endorsed transaction survives the frame the ordering service ships,
// read/write sets included.
func TestEnvelopeRoundTrip(t *testing.T) {
	tx := addTx("e1", "stock", 3)
	tx.Reads = types.ReadList{{Key: "stock", Ver: types.Version{Block: 2, Tx: 1}}}
	tx.Writes = types.WriteList{{Key: "stock", Value: []byte("7")}}
	in := envelope{Channel: "supply", Tx: tx}

	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	if err := wire.EncodeFrame(e, in); err != nil {
		t.Fatal(err)
	}
	v, err := wire.DecodeFrame(e.Frame())
	if err != nil {
		t.Fatal(err)
	}
	out, ok := v.(envelope)
	if !ok {
		t.Fatalf("decoded %T, want envelope", v)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip changed the envelope:\n got %+v\nwant %+v", out, in)
	}
}
