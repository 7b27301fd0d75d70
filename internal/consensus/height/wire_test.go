package height

import (
	"reflect"
	"testing"

	"permchain/internal/types"
	"permchain/internal/wire"
)

func TestWireRoundTrip(t *testing.T) {
	dig := types.HashBytes([]byte("value"))
	msgs := []any{
		request{Digest: dig, Value: "payload"},
		syncReq{Height: 12},
		syncRep{Height: 12, Digest: dig, Value: "payload"},
	}
	for _, m := range msgs {
		e := wire.GetEncoder()
		if err := wire.EncodeFrame(e, m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := wire.DecodeFrame(e.Frame())
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %T:\ngot  %#v\nwant %#v", m, got, m)
		}
		wire.PutEncoder(e)
	}
}
