package tendermint

import (
	"permchain/internal/wire"
)

// Frame codecs for Tendermint's own messages (wire tags 112–127; 114–116
// are retired and never reused).
var (
	proposalCodec = wire.Register[proposal](112, putProposal, getProposal)
	voteCodec     = wire.Register[voteMsg](113, putVote, getVote)
)

func init() {
	wire.Intern(msgProposal, msgPrevote, msgPrecommit,
		names.Request, names.SyncReq, names.SyncRep)
}

func putProposal(e *wire.Encoder, m *proposal) {
	e.U64(m.Height)
	e.U64(m.Round)
	e.Hash(m.Digest)
	e.Any(m.Value)
	e.Bytes(m.Sig)
}

func getProposal(d *wire.Decoder, m *proposal) {
	m.Height = d.U64()
	m.Round = d.U64()
	m.Digest = d.Hash()
	m.Value = d.Any()
	m.Sig = d.AppendBytes(m.Sig)
}

func putVote(e *wire.Encoder, m *voteMsg) {
	e.U64(m.Height)
	e.U64(m.Round)
	e.Hash(m.Digest)
	e.Bytes(m.Sig)
}

func getVote(d *wire.Decoder, m *voteMsg) {
	m.Height = d.U64()
	m.Round = d.U64()
	m.Digest = d.Hash()
	m.Sig = d.AppendBytes(m.Sig)
}
