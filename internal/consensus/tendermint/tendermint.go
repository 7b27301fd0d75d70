// Package tendermint implements the Tendermint consensus protocol (Kwon,
// 2014) as characterized in §2.3.3 of the tutorial: a PBFT-family
// protocol that (1) restricts participation to validators, (2) rotates
// the proposer every round in a round-robin manner, and (3) weighs votes
// by stake — quorums are two-thirds of total voting power, not
// two-thirds of the validator count.
//
// Heights are decided one at a time through propose → prevote →
// precommit rounds with value locking: once a validator sees a polka
// (two-thirds prevote power for a value) it locks that value and only
// releases the lock for a newer polka, which is what makes two conflicting
// decisions impossible across rounds. The height engine it shares with
// IBFT (internal/consensus/height) runs the loop, request gossip, height
// sync, decided history and the stake table.
package tendermint

import (
	"permchain/internal/consensus"
	"permchain/internal/consensus/height"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/types"
)

const (
	msgProposal  = "tm/proposal"
	msgPrevote   = "tm/prevote"
	msgPrecommit = "tm/precommit"
)

// names are Tendermint's metric prefix and engine message types.
var names = height.Names{
	Metric:  "tendermint",
	Request: "tm/request", SyncReq: "tm/syncreq", SyncRep: "tm/syncrep",
}

// Config adds the validator stake table to the shared consensus config.
type Config struct {
	consensus.Config
	// Stakes aligns with Nodes; nil means every validator has stake 1.
	// Voting power is proportional to stake (bonded coins).
	Stakes []int64
}

type proposal struct {
	Height uint64
	Round  uint64
	Digest types.Hash
	Value  any
	Sig    []byte
}

type voteMsg struct { // prevote or precommit; zero digest = nil vote
	Height uint64
	Round  uint64
	Digest types.Hash
	Sig    []byte
}

type step int

const (
	stepPropose step = iota
	stepPrevote
	stepPrecommit
)

// roundState accumulates votes for one (height, round).
type roundState struct {
	proposal      *proposal
	prevotes      map[types.NodeID]types.Hash
	precommits    map[types.NodeID]types.Hash
	sentPrevote   bool
	sentPrecommit bool
}

func newRoundState() *roundState {
	return &roundState{
		prevotes:   map[types.NodeID]types.Hash{},
		precommits: map[types.NodeID]types.Hash{},
	}
}

// Replica is one Tendermint validator: the shared height engine, which
// owns the stake table, plus propose/prevote/precommit with locking.
type Replica struct {
	*height.Engine
	cfg consensus.Config

	// Per-height round state; the engine calls ResetHeight after a decision.
	round       uint64
	step        step
	rounds      map[uint64]*roundState // round → state, current height
	lockedVal   any
	lockedDig   types.Hash
	lockedRound int64 // -1 = not locked
}

// New creates a Tendermint validator. Call Start to launch it.
func New(cfg Config) *Replica {
	r := &Replica{cfg: cfg.Config.Defaulted()}
	r.ResetHeight()
	r.Engine = height.New(r.cfg, cfg.Stakes, names, r)
	return r
}

// ResetHeight implements height.Protocol.
func (r *Replica) ResetHeight() {
	r.round = 0
	r.rounds = map[uint64]*roundState{}
	r.lockedRound = -1
	r.lockedDig = types.ZeroHash
	r.lockedVal = nil
}

// quorum reports whether power exceeds two-thirds of total voting power.
func (r *Replica) quorum(power int64) bool { return 3*power > 2*r.TotalPower() }

func (r *Replica) roundState(round uint64) *roundState {
	rs, ok := r.rounds[round]
	if !ok {
		rs = newRoundState()
		r.rounds[round] = rs
	}
	return rs
}

// StartRound implements height.Protocol.
func (r *Replica) StartRound() { r.enterRound(r.round) }

func (r *Replica) enterRound(round uint64) {
	h := r.Height()
	if round > 0 {
		r.cfg.Obs.Inc("tendermint/extra_rounds")
		r.cfg.Obs.NoteViewChange()
		r.cfg.Obs.Logger("tendermint").Warn("extra round",
			"node", int(r.cfg.Self), "height", h, "round", round)
	}
	r.round = round
	r.cfg.Obs.SetGauge("tendermint/round", int64(round))
	r.step = stepPropose
	r.ResetTimer(r.cfg.Timeout)
	if r.Proposer(h, round) != r.cfg.Self {
		return
	}
	// Proposer: re-propose the locked value, else the oldest pending one.
	dig, val := r.lockedDig, r.lockedVal
	if r.lockedRound < 0 {
		var ok bool
		if dig, val, ok = r.NextPending(); !ok {
			return // nothing to propose; peers will time this round out
		}
	}
	p := proposal{
		Height: h, Round: round, Digest: dig, Value: val,
		Sig: r.cfg.SignPart([]byte(msgProposal), consensus.U64(h), consensus.U64(round), dig[:]),
	}
	r.Multicast(msgProposal, p)
	r.onProposal(r.cfg.Self, p)
}

// OnMessage implements height.Protocol.
func (r *Replica) OnMessage(m network.Message) {
	switch m.Type {
	case msgProposal:
		p, ok := m.Payload.(proposal)
		if !ok || r.Buffer(m, p.Height) ||
			!r.cfg.VerifyPart(m.From, p.Sig, []byte(msgProposal), consensus.U64(p.Height), consensus.U64(p.Round), p.Digest[:]) {
			return
		}
		r.onProposal(m.From, p)
	case msgPrevote, msgPrecommit:
		v, ok := m.Payload.(voteMsg)
		if !ok || r.Buffer(m, v.Height) ||
			!r.cfg.VerifyPart(m.From, v.Sig, []byte(m.Type), consensus.U64(v.Height), consensus.U64(v.Round), v.Digest[:]) {
			return
		}
		if m.Type == msgPrevote {
			r.onPrevote(m.From, v)
		} else {
			r.onPrecommit(m.From, v)
		}
	}
}

func (r *Replica) onProposal(from types.NodeID, p proposal) {
	if p.Height != r.Height() || from != r.Proposer(p.Height, p.Round) {
		return
	}
	r.SetActive()
	rs := r.roundState(p.Round)
	if rs.proposal != nil {
		return // one proposal per round; equivocation ignored
	}
	rs.proposal = &p
	r.Learn(p.Digest, p.Value)
	r.cfg.Obs.Mark(p.Digest, p.Height, obs.PhasePropose)
	if p.Round != r.round {
		return
	}
	r.maybePrevote(p.Round)
}

// maybePrevote casts the prevote for the current round's proposal,
// honoring the lock.
func (r *Replica) maybePrevote(round uint64) {
	rs := r.roundState(round)
	if rs.sentPrevote || rs.proposal == nil || round != r.round {
		return
	}
	dig := rs.proposal.Digest
	if r.lockedRound >= 0 && r.lockedDig != dig {
		dig = types.ZeroHash // locked elsewhere: prevote nil
	}
	r.sendPrevote(rs, dig)
}

// sendPrevote casts this round's prevote for dig (zero = nil).
func (r *Replica) sendPrevote(rs *roundState, dig types.Hash) {
	h := r.Height()
	rs.sentPrevote = true
	r.step = stepPrevote
	r.ResetTimer(r.cfg.Timeout)
	v := voteMsg{
		Height: h, Round: r.round, Digest: dig,
		Sig: r.cfg.SignPart([]byte(msgPrevote), consensus.U64(h), consensus.U64(r.round), dig[:]),
	}
	r.Multicast(msgPrevote, v)
	r.onPrevote(r.cfg.Self, v)
}

func (r *Replica) onPrevote(from types.NodeID, v voteMsg) {
	if v.Height != r.Height() {
		return
	}
	r.SetActive()
	rs := r.roundState(v.Round)
	if _, dup := rs.prevotes[from]; dup {
		return
	}
	rs.prevotes[from] = v.Digest

	// A polka for a real value locks it and triggers the precommit.
	if !v.Digest.IsZero() && r.quorum(r.PowerFor(rs.prevotes, v.Digest)) {
		if int64(v.Round) >= r.lockedRound {
			r.lockedRound = int64(v.Round)
			r.lockedDig = v.Digest
			r.lockedVal = r.Value(v.Digest)
		}
		r.cfg.Obs.Mark(v.Digest, v.Height, obs.PhasePrepare)
		r.sendPrecommit(v.Round, v.Digest)
		return
	}
	// A nil polka in the current round means this round is dead.
	if v.Digest.IsZero() && v.Round == r.round && r.quorum(r.PowerFor(rs.prevotes, types.ZeroHash)) {
		r.sendPrecommit(v.Round, types.ZeroHash)
	}
}

func (r *Replica) sendPrecommit(round uint64, dig types.Hash) {
	rs := r.roundState(round)
	if rs.sentPrecommit {
		return
	}
	rs.sentPrecommit = true
	h := r.Height()
	if !dig.IsZero() {
		r.cfg.Obs.Mark(dig, h, obs.PhasePreCommit)
	}
	if round == r.round {
		r.step = stepPrecommit
		r.ResetTimer(r.cfg.Timeout)
	}
	v := voteMsg{
		Height: h, Round: round, Digest: dig,
		Sig: r.cfg.SignPart([]byte(msgPrecommit), consensus.U64(h), consensus.U64(round), dig[:]),
	}
	r.Multicast(msgPrecommit, v)
	r.onPrecommit(r.cfg.Self, v)
}

func (r *Replica) onPrecommit(from types.NodeID, v voteMsg) {
	if v.Height != r.Height() {
		return
	}
	r.SetActive()
	rs := r.roundState(v.Round)
	if _, dup := rs.precommits[from]; dup {
		return
	}
	rs.precommits[from] = v.Digest

	// Two-thirds precommit power for a value decides the height, whatever
	// round it happened in.
	if !v.Digest.IsZero() && r.quorum(r.PowerFor(rs.precommits, v.Digest)) {
		r.Decide(v.Digest)
		return
	}
	// A nil precommit quorum for the current round advances the round.
	if v.Digest.IsZero() && v.Round == r.round && r.quorum(r.PowerFor(rs.precommits, types.ZeroHash)) {
		r.enterRound(r.round + 1)
	}
}

// OnTimeout implements height.Protocol.
func (r *Replica) OnTimeout() {
	switch r.step {
	case stepPropose:
		// No proposal: prevote nil.
		if rs := r.roundState(r.round); !rs.sentPrevote {
			r.sendPrevote(rs, types.ZeroHash)
		}
	case stepPrevote:
		// No polka: precommit nil.
		r.sendPrecommit(r.round, types.ZeroHash)
	case stepPrecommit:
		// No decision: next round.
		r.enterRound(r.round + 1)
	}
}
