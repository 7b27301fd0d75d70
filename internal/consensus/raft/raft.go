// Package raft implements the Raft consensus algorithm (Ongaro &
// Ousterhout, ATC'14), the crash-fault-tolerant ordering protocol used by
// Quorum and by Hyperledger Fabric's ordering service (§2.3.3). n
// replicas tolerate ⌊(n-1)/2⌋ crash failures; there is no Byzantine
// tolerance — a malicious leader can rewrite history, which is exactly
// the trade-off the tutorial draws between Raft-based and BFT-based
// permissioned systems.
package raft

import (
	"math/rand"
	"sync/atomic"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/types"
)

const (
	msgRequestVote = "raft/requestvote"
	msgVoteResp    = "raft/voteresp"
	msgAppend      = "raft/append"
	msgAppendResp  = "raft/appendresp"
	msgForward     = "raft/forward"
)

type role int

const (
	follower role = iota
	candidate
	leader
)

type entry struct {
	Term   uint64
	Digest types.Hash
	Value  any
}

type requestVote struct {
	Term         uint64
	LastLogIndex uint64
	LastLogTerm  uint64
}

type voteResp struct {
	Term    uint64
	Granted bool
}

type appendEntries struct {
	Term         uint64
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []entry
	LeaderCommit uint64
}

type appendResp struct {
	Term    uint64
	Success bool
	// Match is the highest log index known replicated on the follower
	// (on success), or a hint to rewind nextIndex (on failure).
	Match uint64
}

type forward struct {
	Digest types.Hash
	Value  any
}

// Replica is one Raft node.
type Replica struct {
	*consensus.Loop
	cfg consensus.Config
	ep  *network.Endpoint
	rng *rand.Rand

	// Event-loop state.
	role        role
	term        uint64
	votedFor    types.NodeID // -1 = none
	leaderID    types.NodeID // -1 = unknown
	log         []entry      // log[0] is a sentinel; real entries start at 1
	commitIndex uint64
	applied     uint64
	appliedSeq  uint64 // count of non-noop applied entries (decision seq)
	votes       map[types.NodeID]bool
	nextIndex   map[types.NodeID]uint64
	matchIndex  map[types.NodeID]uint64
	inLog       map[types.Hash]bool // digests present in the log (leader dedupe)
	appliedDig  map[types.Hash]bool // digests already applied
	pending     map[types.Hash]any  // submitted here, not yet applied
	forwarded   types.NodeID        // leader the pending set was last sent to (-1 none)
	timer       *consensus.LoopTimer

	// isLeader mirrors role==leader for observers outside the loop.
	isLeader atomic.Bool
}

// New creates a Raft replica. Call Start to launch it.
func New(cfg consensus.Config) *Replica {
	cfg = cfg.Defaulted()
	r := &Replica{
		Loop:       consensus.NewLoop(cfg, "raft"),
		cfg:        cfg,
		ep:         cfg.Net.Join(cfg.Self),
		rng:        rand.New(rand.NewSource(int64(cfg.Self)*7919 + 17)),
		votedFor:   -1,
		leaderID:   -1,
		log:        make([]entry, 1),
		votes:      map[types.NodeID]bool{},
		nextIndex:  map[types.NodeID]uint64{},
		matchIndex: map[types.NodeID]uint64{},
		inLog:      map[types.Hash]bool{},
		appliedDig: map[types.Hash]bool{},
		pending:    map[types.Hash]any{},
		forwarded:  -1,
		timer:      consensus.NewLoopTimer(),
	}
	return r
}

// Start implements consensus.Replica.
func (r *Replica) Start() { r.Loop.Start(r.run) }

func (r *Replica) run(stop <-chan struct{}, submits <-chan consensus.Submission) {
	defer r.timer.Stop()
	r.resetElectionTimer()
	for {
		select {
		case <-stop:
			return
		case s := <-submits:
			r.onSubmit(forward(s))
		case m := <-r.ep.Inbox():
			r.onMessage(m)
		case <-r.timer.C():
			r.onTimeout()
		}
	}
}

func (r *Replica) electionTimeout() time.Duration {
	base := r.cfg.Timeout
	return base + time.Duration(r.rng.Int63n(int64(base)))
}

func (r *Replica) resetElectionTimer() { r.timer.Reset(r.electionTimeout()) }

func (r *Replica) heartbeatInterval() time.Duration { return r.cfg.Timeout / 5 }

func (r *Replica) lastLogIndex() uint64 { return uint64(len(r.log) - 1) }

func (r *Replica) lastLogTerm() uint64 { return r.log[len(r.log)-1].Term }

func (r *Replica) onSubmit(f forward) {
	if r.appliedDig[f.Digest] {
		return
	}
	r.pending[f.Digest] = f.Value
	// Forward just this request; re-forwarding the whole pending set per
	// submission would be quadratic in client traffic.
	if r.role == leader {
		r.leaderAppend(f.Digest, f.Value)
		return
	}
	if r.leaderID >= 0 {
		r.ep.Send(r.leaderID, msgForward, forward{Digest: f.Digest, Value: f.Value})
	}
}

// dispatchPending pushes pending requests to the leader (or appends them
// locally when this replica is the leader).
func (r *Replica) dispatchPending() {
	if len(r.pending) == 0 {
		return
	}
	if r.role == leader {
		for d, v := range r.pending {
			r.leaderAppend(d, v)
		}
		return
	}
	// Forward once per (pending-set change, leader); re-forwarding on
	// every heartbeat would make client traffic quadratic.
	if r.leaderID >= 0 && r.forwarded != r.leaderID {
		for d, v := range r.pending {
			r.ep.Send(r.leaderID, msgForward, forward{Digest: d, Value: v})
		}
		r.forwarded = r.leaderID
	}
}

func (r *Replica) leaderAppend(digest types.Hash, value any) {
	if r.inLog[digest] || r.appliedDig[digest] {
		return
	}
	r.inLog[digest] = true
	r.cfg.Obs.Mark(digest, 0, obs.PhasePropose)
	r.log = append(r.log, entry{Term: r.term, Digest: digest, Value: value})
	r.matchIndex[r.cfg.Self] = r.lastLogIndex()
	r.broadcastAppend()
	r.advanceCommit() // a single-node cluster commits immediately
}

// IsLeader reports whether this replica currently believes it is the
// leader. Observational only: leadership can change immediately after.
func (r *Replica) IsLeader() bool { return r.isLeader.Load() }

func (r *Replica) becomeFollower(term uint64) {
	r.role = follower
	r.isLeader.Store(false)
	r.term = term
	r.votedFor = -1
	r.cfg.Obs.SetGauge("raft/term", int64(term))
	r.resetElectionTimer()
}

func (r *Replica) becomeCandidate() {
	r.cfg.Obs.Inc("raft/elections")
	r.cfg.Obs.NoteViewChange()
	r.role = candidate
	r.isLeader.Store(false)
	r.term++
	r.cfg.Obs.SetGauge("raft/term", int64(r.term))
	r.cfg.Obs.Logger("raft").Warn("election started",
		"node", int(r.cfg.Self), "term", r.term)
	r.votedFor = r.cfg.Self
	r.leaderID = -1
	r.votes = map[types.NodeID]bool{r.cfg.Self: true}
	r.resetElectionTimer()
	rv := requestVote{Term: r.term, LastLogIndex: r.lastLogIndex(), LastLogTerm: r.lastLogTerm()}
	r.ep.Multicast(r.cfg.Nodes, msgRequestVote, rv)
	if len(r.votes) >= r.cfg.Majority() { // single-node cluster
		r.becomeLeader()
	}
}

func (r *Replica) becomeLeader() {
	r.cfg.Obs.Inc("raft/leader_changes")
	r.cfg.Obs.Logger("raft").Info("became leader",
		"node", int(r.cfg.Self), "term", r.term)
	r.role = leader
	r.isLeader.Store(true)
	r.leaderID = r.cfg.Self
	for _, id := range r.cfg.Nodes {
		r.nextIndex[id] = r.lastLogIndex() + 1
		r.matchIndex[id] = 0
	}
	r.matchIndex[r.cfg.Self] = r.lastLogIndex()
	// A no-op entry lets the new leader commit entries from earlier terms
	// (Raft §5.4.2 forbids counting replicas for old-term entries).
	r.log = append(r.log, entry{Term: r.term, Digest: types.ZeroHash, Value: nil})
	r.matchIndex[r.cfg.Self] = r.lastLogIndex()
	r.dispatchPending()
	r.broadcastAppend()
	r.advanceCommit()
	r.timer.Reset(r.heartbeatInterval())
}

func (r *Replica) broadcastAppend() {
	for _, id := range r.cfg.Nodes {
		if id == r.cfg.Self {
			continue
		}
		r.sendAppend(id)
	}
}

func (r *Replica) sendAppend(to types.NodeID) {
	next := r.nextIndex[to]
	if next < 1 {
		next = 1
	}
	prev := next - 1
	var ents []entry
	if r.lastLogIndex() >= next {
		ents = append(ents, r.log[next:]...)
	}
	r.ep.Send(to, msgAppend, appendEntries{
		Term:         r.term,
		PrevLogIndex: prev,
		PrevLogTerm:  r.log[prev].Term,
		Entries:      ents,
		LeaderCommit: r.commitIndex,
	})
}

func (r *Replica) onTimeout() {
	if r.role == leader {
		r.broadcastAppend()
		r.timer.Reset(r.heartbeatInterval())
		return
	}
	r.becomeCandidate()
}

func (r *Replica) onMessage(m network.Message) {
	if !r.cfg.IsMember(m.From) {
		return // not part of this replica group
	}
	switch m.Type {
	case msgForward:
		f, ok := m.Payload.(forward)
		if !ok {
			return
		}
		if r.appliedDig[f.Digest] {
			return
		}
		if r.role == leader {
			r.leaderAppend(f.Digest, f.Value)
		} else {
			// Not the leader anymore: remember it so it is not lost.
			r.pending[f.Digest] = f.Value
			r.dispatchPending()
		}
	case msgRequestVote:
		rv, ok := m.Payload.(requestVote)
		if !ok {
			return
		}
		r.onRequestVote(m.From, rv)
	case msgVoteResp:
		vr, ok := m.Payload.(voteResp)
		if !ok {
			return
		}
		r.onVoteResp(m.From, vr)
	case msgAppend:
		ae, ok := m.Payload.(appendEntries)
		if !ok {
			return
		}
		r.onAppendEntries(m.From, ae)
	case msgAppendResp:
		ar, ok := m.Payload.(appendResp)
		if !ok {
			return
		}
		r.onAppendResp(m.From, ar)
	}
}

func (r *Replica) onRequestVote(from types.NodeID, rv requestVote) {
	if rv.Term > r.term {
		r.becomeFollower(rv.Term)
	}
	grant := false
	if rv.Term == r.term && (r.votedFor == -1 || r.votedFor == from) {
		// Candidate's log must be at least as up-to-date (Raft §5.4.1).
		upToDate := rv.LastLogTerm > r.lastLogTerm() ||
			(rv.LastLogTerm == r.lastLogTerm() && rv.LastLogIndex >= r.lastLogIndex())
		if upToDate {
			grant = true
			r.votedFor = from
			r.resetElectionTimer()
		}
	}
	r.ep.Send(from, msgVoteResp, voteResp{Term: r.term, Granted: grant})
}

func (r *Replica) onVoteResp(from types.NodeID, vr voteResp) {
	if vr.Term > r.term {
		r.becomeFollower(vr.Term)
		return
	}
	if r.role != candidate || vr.Term != r.term || !vr.Granted {
		return
	}
	r.votes[from] = true
	if len(r.votes) >= r.cfg.Majority() {
		r.becomeLeader()
	}
}

func (r *Replica) onAppendEntries(from types.NodeID, ae appendEntries) {
	if ae.Term > r.term {
		r.becomeFollower(ae.Term)
	}
	if ae.Term < r.term {
		r.ep.Send(from, msgAppendResp, appendResp{Term: r.term, Success: false})
		return
	}
	// Valid leader for this term.
	r.role = follower
	r.isLeader.Store(false)
	if r.leaderID != from {
		r.leaderID = from
		r.forwarded = -1
	}
	r.resetElectionTimer()
	r.dispatchPending()

	// Log consistency check.
	if ae.PrevLogIndex > r.lastLogIndex() || r.log[ae.PrevLogIndex].Term != ae.PrevLogTerm {
		hint := r.lastLogIndex()
		if ae.PrevLogIndex < hint {
			hint = ae.PrevLogIndex
		}
		r.ep.Send(from, msgAppendResp, appendResp{Term: r.term, Success: false, Match: hint})
		return
	}
	// Append, truncating conflicts.
	for i, e := range ae.Entries {
		idx := ae.PrevLogIndex + 1 + uint64(i)
		if idx <= r.lastLogIndex() {
			if r.log[idx].Term == e.Term {
				continue
			}
			for _, dropped := range r.log[idx:] {
				delete(r.inLog, dropped.Digest)
			}
			r.log = r.log[:idx]
		}
		r.log = append(r.log, e)
		r.inLog[e.Digest] = true
	}
	if ae.LeaderCommit > r.commitIndex {
		last := ae.PrevLogIndex + uint64(len(ae.Entries))
		if ae.LeaderCommit < last {
			r.commitIndex = ae.LeaderCommit
		} else {
			r.commitIndex = last
		}
		r.applyCommitted()
	}
	r.ep.Send(from, msgAppendResp, appendResp{Term: r.term, Success: true, Match: ae.PrevLogIndex + uint64(len(ae.Entries))})
}

func (r *Replica) onAppendResp(from types.NodeID, ar appendResp) {
	if ar.Term > r.term {
		r.becomeFollower(ar.Term)
		return
	}
	if r.role != leader || ar.Term != r.term {
		return
	}
	if !ar.Success {
		// Rewind and retry.
		if ar.Match+1 < r.nextIndex[from] {
			r.nextIndex[from] = ar.Match + 1
		} else if r.nextIndex[from] > 1 {
			r.nextIndex[from]--
		}
		r.sendAppend(from)
		return
	}
	if ar.Match > r.matchIndex[from] {
		r.matchIndex[from] = ar.Match
	}
	r.nextIndex[from] = ar.Match + 1
	r.advanceCommit()
}

// advanceCommit moves commitIndex to the highest index replicated on a
// majority whose entry is from the current term.
func (r *Replica) advanceCommit() {
	for idx := r.lastLogIndex(); idx > r.commitIndex; idx-- {
		if r.log[idx].Term != r.term {
			break // only current-term entries commit by counting (§5.4.2)
		}
		count := 0
		for _, id := range r.cfg.Nodes {
			if r.matchIndex[id] >= idx {
				count++
			}
		}
		if count >= r.cfg.Majority() {
			r.commitIndex = idx
			r.applyCommitted()
			// Propagate the new commit index to followers immediately
			// rather than waiting for the next heartbeat.
			r.broadcastAppend()
			break
		}
	}
}

func (r *Replica) applyCommitted() {
	for r.applied < r.commitIndex {
		r.applied++
		e := r.log[r.applied]
		delete(r.pending, e.Digest)
		if e.Digest.IsZero() {
			continue // leader no-op
		}
		r.appliedDig[e.Digest] = true
		r.appliedSeq++
		r.cfg.Obs.MarkLatency("raft/commit_latency", e.Digest, r.appliedSeq, obs.PhasePropose, obs.PhaseCommit)
		r.Decide(r.appliedSeq, e.Digest, e.Value)
	}
}
