package ibft

import (
	"permchain/internal/wire"
)

// Frame codecs for IBFT's own messages (wire tags 96–111; 96–98 are
// retired and never reused).
var (
	prePrepareCodec  = wire.Register[prePrepare](99, putPrePrepare, getPrePrepare)
	voteCodec        = wire.Register[vote](100, putVote, getVote)
	roundChangeCodec = wire.Register[roundChange](101, putRoundChange, getRoundChange)
)

func init() {
	wire.Intern(msgPrePrepare, msgPrepare, msgCommit, msgRoundChange,
		names.Request, names.SyncReq, names.SyncRep)
}

func putPrePrepare(e *wire.Encoder, m *prePrepare) {
	e.U64(m.Height)
	e.U64(m.Round)
	e.Hash(m.Digest)
	e.Any(m.Value)
	e.Bytes(m.Sig)
}

func getPrePrepare(d *wire.Decoder, m *prePrepare) {
	m.Height = d.U64()
	m.Round = d.U64()
	m.Digest = d.Hash()
	m.Value = d.Any()
	m.Sig = d.AppendBytes(m.Sig)
}

func putVote(e *wire.Encoder, m *vote) {
	e.U64(m.Height)
	e.U64(m.Round)
	e.Hash(m.Digest)
	e.Bytes(m.Sig)
}

func getVote(d *wire.Decoder, m *vote) {
	m.Height = d.U64()
	m.Round = d.U64()
	m.Digest = d.Hash()
	m.Sig = d.AppendBytes(m.Sig)
}

func putRoundChange(e *wire.Encoder, m *roundChange) {
	e.U64(m.Height)
	e.U64(m.Round)
	e.I64(m.PreparedRound)
	e.Hash(m.PreparedDigest)
	e.Any(m.PreparedValue)
	e.Bytes(m.Sig)
}

func getRoundChange(d *wire.Decoder, m *roundChange) {
	m.Height = d.U64()
	m.Round = d.U64()
	m.PreparedRound = d.I64()
	m.PreparedDigest = d.Hash()
	m.PreparedValue = d.Any()
	m.Sig = d.AppendBytes(m.Sig)
}
