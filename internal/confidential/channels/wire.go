package channels

import (
	"permchain/internal/types"
	"permchain/internal/wire"
)

// envelopeCodec (wire tag 192) carries channel-tagged transactions
// through the shared ordering service.
var envelopeCodec = wire.Register[envelope](192, putEnvelope, getEnvelope)

func putEnvelope(e *wire.Encoder, env *envelope) {
	e.Str(string(env.Channel))
	wire.PutTx(e, &env.Tx)
}

func getEnvelope(d *wire.Decoder, env *envelope) {
	env.Channel = types.ChannelID(d.Str())
	wire.GetTx(d, &env.Tx)
}
