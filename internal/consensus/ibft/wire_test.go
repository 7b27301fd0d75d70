package ibft

import (
	"reflect"
	"testing"

	"permchain/internal/types"
	"permchain/internal/wire"
)

func TestWireRoundTrip(t *testing.T) {
	dig := types.HashBytes([]byte("value"))
	msgs := []any{
		prePrepare{Height: 3, Round: 1, Digest: dig, Value: "payload", Sig: []byte("pp")},
		vote{Height: 3, Round: 1, Digest: dig, Sig: []byte("v")},
		roundChange{Height: 3, Round: 2, PreparedRound: 1, PreparedDigest: dig,
			PreparedValue: "payload", Sig: []byte("rc")},
		roundChange{Height: 3, Round: 2, PreparedRound: -1, Sig: []byte("rc")},
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
