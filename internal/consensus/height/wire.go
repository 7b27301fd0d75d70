package height

import (
	"permchain/internal/wire"
)

// Frame codecs for the engine's messages (wire tags 208–223). The
// layouts are the ones ibft and tendermint used under their retired tags
// 96–98 and 114–116; only the tag differs.
var (
	requestCodec = wire.Register[request](208, putRequest, getRequest)
	syncReqCodec = wire.Register[syncReq](209, putSyncReq, getSyncReq)
	syncRepCodec = wire.Register[syncRep](210, putSyncRep, getSyncRep)
)

func putRequest(e *wire.Encoder, m *request) {
	e.Hash(m.Digest)
	e.Any(m.Value)
}

func getRequest(d *wire.Decoder, m *request) {
	m.Digest = d.Hash()
	m.Value = d.Any()
}

func putSyncReq(e *wire.Encoder, m *syncReq) { e.U64(m.Height) }

func getSyncReq(d *wire.Decoder, m *syncReq) { m.Height = d.U64() }

func putSyncRep(e *wire.Encoder, m *syncRep) {
	e.U64(m.Height)
	e.Hash(m.Digest)
	e.Any(m.Value)
}

func getSyncRep(d *wire.Decoder, m *syncRep) {
	m.Height = d.U64()
	m.Digest = d.Hash()
	m.Value = d.Any()
}
