// Package ibft implements Istanbul BFT, the PBFT-family protocol Quorum
// offers for Byzantine settings (§2.3.2 of the tutorial, EIP-650). It
// differs from classic PBFT in being height-oriented: each block height
// runs pre-prepare → prepare → commit with the proposer rotating
// round-robin every height and every round change, instead of a stable
// primary replaced only by a global view change. The height engine it
// shares with Tendermint (internal/consensus/height) runs the loop,
// request gossip, height sync and decided history; this package keeps
// the phases, prepared certificates and round change.
package ibft

import (
	"permchain/internal/consensus"
	"permchain/internal/consensus/height"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/types"
)

const (
	msgPrePrepare  = "ibft/preprepare"
	msgPrepare     = "ibft/prepare"
	msgCommit      = "ibft/commit"
	msgRoundChange = "ibft/roundchange"
)

// names are IBFT's metric prefix and engine message types.
var names = height.Names{
	Metric:  "ibft",
	Request: "ibft/request", SyncReq: "ibft/syncreq", SyncRep: "ibft/syncrep",
}

type prePrepare struct {
	Height uint64
	Round  uint64
	Digest types.Hash
	Value  any
	Sig    []byte
}

type vote struct {
	Height uint64
	Round  uint64
	Digest types.Hash
	Sig    []byte
}

type roundChange struct {
	Height uint64
	Round  uint64
	// PreparedDigest/Value carry the sender's prepared certificate, if
	// any; PreparedRound is -1 when the sender prepared nothing.
	PreparedRound  int64
	PreparedDigest types.Hash
	PreparedValue  any
	Sig            []byte
}

type roundState struct {
	proposal   *prePrepare
	prepares   map[types.NodeID]types.Hash
	commits    map[types.NodeID]types.Hash
	sentPrep   bool
	sentCommit bool
}

func newRoundState() *roundState {
	return &roundState{
		prepares: map[types.NodeID]types.Hash{},
		commits:  map[types.NodeID]types.Hash{},
	}
}

// Replica is one IBFT validator.
type Replica struct {
	*height.Engine
	cfg consensus.Config

	// Per-height round state; the engine calls ResetHeight after a decision.
	round      uint64
	rounds     map[uint64]*roundState
	rcVotes    map[uint64]map[types.NodeID]*roundChange
	prepRound  int64 // highest round this replica prepared in (-1 none)
	prepDigest types.Hash
	prepValue  any
}

// New creates an IBFT validator. Call Start to launch it.
func New(cfg consensus.Config) *Replica {
	r := &Replica{cfg: cfg.Defaulted()}
	r.ResetHeight()
	r.Engine = height.New(r.cfg, nil, names, r)
	return r
}

// ResetHeight implements height.Protocol.
func (r *Replica) ResetHeight() {
	r.round = 0
	r.rounds = map[uint64]*roundState{}
	r.rcVotes = map[uint64]map[types.NodeID]*roundChange{}
	r.prepRound = -1
	r.prepDigest = types.ZeroHash
	r.prepValue = nil
}

// StartRound implements height.Protocol.
func (r *Replica) StartRound() { r.enterRound(r.round) }

func (r *Replica) roundState(round uint64) *roundState {
	rs, ok := r.rounds[round]
	if !ok {
		rs = newRoundState()
		r.rounds[round] = rs
	}
	return rs
}

func (r *Replica) enterRound(round uint64) {
	r.round = round
	r.cfg.Obs.SetGauge("ibft/round", int64(round))
	r.ResetTimer(r.cfg.Timeout)
	h := r.Height()
	if r.Proposer(h, round) != r.cfg.Self {
		return
	}
	// Prepared value wins; otherwise propose the oldest pending request.
	dig, val := r.prepDigest, r.prepValue
	if r.prepRound < 0 {
		var ok bool
		if dig, val, ok = r.NextPending(); !ok {
			return
		}
	}
	pp := prePrepare{
		Height: h, Round: round, Digest: dig, Value: val,
		Sig: r.cfg.SignPart([]byte(msgPrePrepare), consensus.U64(h), consensus.U64(round), dig[:]),
	}
	r.Multicast(msgPrePrepare, pp)
	r.onPrePrepare(r.cfg.Self, pp)
}

// OnMessage implements height.Protocol.
func (r *Replica) OnMessage(m network.Message) {
	switch m.Type {
	case msgPrePrepare:
		pp, ok := m.Payload.(prePrepare)
		if !ok || r.Buffer(m, pp.Height) ||
			!r.cfg.VerifyPart(m.From, pp.Sig, []byte(msgPrePrepare), consensus.U64(pp.Height), consensus.U64(pp.Round), pp.Digest[:]) {
			return
		}
		r.onPrePrepare(m.From, pp)
	case msgPrepare, msgCommit:
		v, ok := m.Payload.(vote)
		if !ok || r.Buffer(m, v.Height) ||
			!r.cfg.VerifyPart(m.From, v.Sig, []byte(m.Type), consensus.U64(v.Height), consensus.U64(v.Round), v.Digest[:]) {
			return
		}
		if m.Type == msgPrepare {
			r.onPrepare(m.From, v)
		} else {
			r.onCommit(m.From, v)
		}
	case msgRoundChange:
		rc, ok := m.Payload.(roundChange)
		if !ok || r.Buffer(m, rc.Height) ||
			!r.cfg.VerifyPart(m.From, rc.Sig, []byte(msgRoundChange), consensus.U64(rc.Height), consensus.U64(rc.Round)) {
			return
		}
		r.onRoundChange(m.From, &rc)
	}
}

func (r *Replica) onPrePrepare(from types.NodeID, pp prePrepare) {
	if pp.Height != r.Height() || from != r.Proposer(pp.Height, pp.Round) {
		return
	}
	r.SetActive()
	rs := r.roundState(pp.Round)
	if rs.proposal != nil {
		return // first proposal per round wins
	}
	rs.proposal = &pp
	r.Learn(pp.Digest, pp.Value)
	r.cfg.Obs.Mark(pp.Digest, pp.Height, obs.PhasePropose)
	if pp.Round != r.round || rs.sentPrep {
		return
	}
	// A replica prepared in an earlier round only endorses that value.
	if r.prepRound >= 0 && r.prepDigest != pp.Digest {
		return
	}
	rs.sentPrep = true
	v := vote{
		Height: pp.Height, Round: pp.Round, Digest: pp.Digest,
		Sig: r.cfg.SignPart([]byte(msgPrepare), consensus.U64(pp.Height), consensus.U64(pp.Round), pp.Digest[:]),
	}
	r.Multicast(msgPrepare, v)
	r.onPrepare(r.cfg.Self, v)
}

func (r *Replica) onPrepare(from types.NodeID, v vote) {
	if v.Height != r.Height() {
		return
	}
	rs := r.roundState(v.Round)
	if _, dup := rs.prepares[from]; dup {
		return
	}
	rs.prepares[from] = v.Digest
	if rs.sentCommit || rs.proposal == nil || rs.proposal.Digest != v.Digest {
		return
	}
	if r.PowerFor(rs.prepares, v.Digest) < int64(r.cfg.ByzQuorum()) {
		return
	}
	// Prepared: record the certificate and commit.
	if int64(v.Round) >= r.prepRound {
		r.prepRound = int64(v.Round)
		r.prepDigest = v.Digest
		r.prepValue = r.Value(v.Digest)
	}
	r.cfg.Obs.Mark(v.Digest, v.Height, obs.PhasePrepare)
	rs.sentCommit = true
	c := vote{
		Height: v.Height, Round: v.Round, Digest: v.Digest,
		Sig: r.cfg.SignPart([]byte(msgCommit), consensus.U64(v.Height), consensus.U64(v.Round), v.Digest[:]),
	}
	r.Multicast(msgCommit, c)
	r.onCommit(r.cfg.Self, c)
}

func (r *Replica) onCommit(from types.NodeID, v vote) {
	if v.Height != r.Height() {
		return
	}
	rs := r.roundState(v.Round)
	if _, dup := rs.commits[from]; dup {
		return
	}
	rs.commits[from] = v.Digest
	if r.PowerFor(rs.commits, v.Digest) >= int64(r.cfg.ByzQuorum()) && !v.Digest.IsZero() {
		r.Decide(v.Digest)
	}
}

// OnTimeout implements height.Protocol.
func (r *Replica) OnTimeout() { r.sendRoundChange(r.round + 1) }

func (r *Replica) sendRoundChange(round uint64) {
	h := r.Height()
	r.cfg.Obs.Inc("ibft/round_changes")
	r.cfg.Obs.NoteViewChange()
	r.cfg.Obs.Logger("ibft").Warn("round change",
		"node", int(r.cfg.Self), "height", h, "round", round)
	rc := roundChange{
		Height: h, Round: round,
		PreparedRound: r.prepRound, PreparedDigest: r.prepDigest, PreparedValue: r.prepValue,
		Sig: r.cfg.SignPart([]byte(msgRoundChange), consensus.U64(h), consensus.U64(round)),
	}
	r.ResetTimer(r.cfg.Timeout * 2)
	r.Multicast(msgRoundChange, rc)
	r.onRoundChange(r.cfg.Self, &rc)
}

func (r *Replica) onRoundChange(from types.NodeID, rc *roundChange) {
	if rc.Height != r.Height() || rc.Round <= r.round {
		return
	}
	m, ok := r.rcVotes[rc.Round]
	if !ok {
		m = map[types.NodeID]*roundChange{}
		r.rcVotes[rc.Round] = m
	}
	m[from] = rc

	// Join a round change that f+1 peers already started.
	if len(m) >= r.cfg.MaxByzFaults()+1 {
		if _, voted := m[r.cfg.Self]; !voted {
			r.sendRoundChange(rc.Round)
			return
		}
	}
	if len(m) < r.cfg.ByzQuorum() {
		return
	}
	// Quorum: enter the round. Adopt the highest prepared certificate
	// among the round-change messages so a possibly-decided value
	// survives.
	for _, v := range m {
		if v.PreparedRound >= 0 && v.PreparedRound > r.prepRound {
			r.prepRound = v.PreparedRound
			r.prepDigest = v.PreparedDigest
			r.prepValue = v.PreparedValue
		}
	}
	r.enterRound(rc.Round)
}
