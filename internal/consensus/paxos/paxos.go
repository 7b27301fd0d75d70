// Package paxos implements Multi-Paxos (Lamport, "Paxos Made Simple"),
// the classic crash-fault-tolerant protocol the tutorial cites as the
// other non-Byzantine ordering option (§2.2). A distinguished proposer
// wins a ballot with phase 1 (prepare/promise) once, then drives one
// phase 2 (accept/accepted) round per log slot; learners apply decided
// slots in order.
//
// Compared to Raft the structure is slot-oriented rather than
// log-matching-oriented: a new leader must explicitly re-propose the
// highest-ballot accepted value per slot and fill gaps with no-ops.
package paxos

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
	msgPrepare   = "paxos/prepare"
	msgPromise   = "paxos/promise"
	msgAccept    = "paxos/accept"
	msgAccepted  = "paxos/accepted"
	msgDecide    = "paxos/decide"
	msgHeartbeat = "paxos/heartbeat"
	msgForward   = "paxos/forward"
	msgSyncReq   = "paxos/syncreq"
)

// syncBatch bounds how many decided slots one sync request replays.
const syncBatch = 256

// ballot numbers are globally ordered and proposer-unique: counter in the
// high bits, node id in the low bits.
func makeBallot(counter uint64, id types.NodeID) uint64 {
	return counter<<16 | uint64(uint16(id))
}

func ballotNode(b uint64) types.NodeID { return types.NodeID(uint16(b)) }

type acceptedVal struct {
	Ballot uint64
	Digest types.Hash
	Value  any
}

type prepare struct {
	Ballot uint64
}

type promise struct {
	Ballot   uint64
	Accepted map[uint64]acceptedVal // slot → highest accepted
}

type accept struct {
	Ballot uint64
	Slot   uint64
	Digest types.Hash
	Value  any
}

type accepted struct {
	Ballot uint64
	Slot   uint64
}

type decide struct {
	Slot   uint64
	Digest types.Hash
	Value  any
}

type heartbeat struct {
	Ballot uint64
	// Applied is the leader's contiguous application point; a follower
	// further behind requests a replay of the decided slots it is missing.
	Applied uint64
}

// syncReq asks the leader to re-send decide messages starting at From.
type syncReq struct {
	From uint64
}

type forward struct {
	Digest types.Hash
	Value  any
}

// Replica is one Multi-Paxos node playing proposer, acceptor and learner.
type Replica struct {
	*consensus.Loop
	cfg consensus.Config
	ep  *network.Endpoint
	rng *rand.Rand

	// Acceptor state.
	promised uint64
	accepted map[uint64]acceptedVal

	// Proposer state.
	leading      bool
	isLeader     atomic.Bool // mirrors leading, for cross-goroutine probes
	ballot       uint64      // my current ballot when leading or campaigning
	counter      uint64
	promises     map[types.NodeID]promise
	nextSlot     uint64
	acceptVotes  map[uint64]map[types.NodeID]bool // slot → voters
	inFlight     map[uint64]acceptedVal           // slot → proposal
	proposedDig  map[types.Hash]bool              // digests assigned a slot
	leaderBallot uint64                           // highest leader heartbeat seen

	// Learner state.
	decided    map[uint64]acceptedVal
	applied    uint64
	appliedSeq uint64
	chosen     map[types.Hash]bool

	pending map[types.Hash]any
	timer   *consensus.LoopTimer
}

// New creates a Paxos replica. Call Start to launch it.
func New(cfg consensus.Config) *Replica {
	cfg = cfg.Defaulted()
	return &Replica{
		Loop:        consensus.NewLoop(cfg, "paxos"),
		cfg:         cfg,
		ep:          cfg.Net.Join(cfg.Self),
		rng:         rand.New(rand.NewSource(int64(cfg.Self)*104729 + 3)),
		accepted:    map[uint64]acceptedVal{},
		promises:    map[types.NodeID]promise{},
		nextSlot:    1,
		acceptVotes: map[uint64]map[types.NodeID]bool{},
		inFlight:    map[uint64]acceptedVal{},
		proposedDig: map[types.Hash]bool{},
		decided:     map[uint64]acceptedVal{},
		chosen:      map[types.Hash]bool{},
		pending:     map[types.Hash]any{},
		timer:       consensus.NewLoopTimer(),
	}
}

// Start implements consensus.Replica.
func (r *Replica) Start() { r.Loop.Start(r.run) }

// IsLeader reports whether this replica currently leads (won phase 1 and
// has not observed a higher ballot). Safe from any goroutine.
func (r *Replica) IsLeader() bool { return r.isLeader.Load() }

// setLeading flips proposer leadership, keeping the atomic mirror in sync.
func (r *Replica) setLeading(v bool) {
	r.leading = v
	r.isLeader.Store(v)
}

func (r *Replica) run(stop <-chan struct{}, submits <-chan consensus.Submission) {
	defer r.timer.Stop()
	// Node 0 campaigns immediately so quiet clusters have a leader fast;
	// everyone else waits a randomized timeout first.
	if r.cfg.Self == r.cfg.Nodes[0] {
		r.campaign()
	} else {
		r.resetFollowerTimer()
	}
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

func (r *Replica) resetFollowerTimer() {
	base := r.cfg.Timeout
	r.timer.Reset(base + time.Duration(r.rng.Int63n(int64(base))))
}

func (r *Replica) onTimeout() {
	if r.leading {
		r.ep.Multicast(r.cfg.Nodes, msgHeartbeat, heartbeat{Ballot: r.ballot, Applied: r.applied})
		r.timer.Reset(r.cfg.Timeout / 5)
		return
	}
	r.campaign()
}

// campaign starts phase 1 with a ballot higher than anything seen.
func (r *Replica) campaign() {
	r.cfg.Obs.Inc("paxos/campaigns")
	r.cfg.Obs.NoteViewChange()
	r.counter++
	for makeBallot(r.counter, r.cfg.Self) <= r.promised ||
		makeBallot(r.counter, r.cfg.Self) <= r.leaderBallot {
		r.counter++
	}
	r.ballot = makeBallot(r.counter, r.cfg.Self)
	r.cfg.Obs.SetGauge("paxos/ballot", int64(r.ballot))
	r.cfg.Obs.Logger("paxos").Info("campaign started",
		"node", int(r.cfg.Self), "ballot", r.ballot)
	r.setLeading(false)
	r.promises = map[types.NodeID]promise{}
	r.proposedDig = map[types.Hash]bool{}
	p := prepare{Ballot: r.ballot}
	r.ep.Multicast(r.cfg.Nodes, msgPrepare, p)
	r.onPrepare(r.cfg.Self, p)
	r.resetFollowerTimer()
}

func (r *Replica) onSubmit(f forward) {
	if r.chosen[f.Digest] {
		return
	}
	r.pending[f.Digest] = f.Value
	// Dispatch only the new value; a full pending sweep per submission
	// would be quadratic.
	if r.leading {
		r.proposeValue(f.Digest, f.Value)
		return
	}
	if r.leaderBallot != 0 {
		r.ep.Send(ballotNode(r.leaderBallot), msgForward, forward{Digest: f.Digest, Value: f.Value})
	}
}

func (r *Replica) dispatchPending() {
	if len(r.pending) == 0 {
		return
	}
	if r.leading {
		for d, v := range r.pending {
			r.proposeValue(d, v)
		}
		return
	}
	if r.leaderBallot != 0 {
		to := ballotNode(r.leaderBallot)
		for d, v := range r.pending {
			r.ep.Send(to, msgForward, forward{Digest: d, Value: v})
		}
	}
}

// proposeValue runs phase 2 for a fresh value in the next free slot.
func (r *Replica) proposeValue(digest types.Hash, value any) {
	if r.proposedDig[digest] || r.chosen[digest] {
		return
	}
	r.proposedDig[digest] = true
	slot := r.nextSlot
	r.nextSlot++
	r.phase2(slot, digest, value)
}

func (r *Replica) phase2(slot uint64, digest types.Hash, value any) {
	if !digest.IsZero() { // no-op gap fills have no lifecycle
		r.cfg.Obs.Mark(digest, slot, obs.PhasePropose)
	}
	r.inFlight[slot] = acceptedVal{Ballot: r.ballot, Digest: digest, Value: value}
	r.acceptVotes[slot] = map[types.NodeID]bool{}
	a := accept{Ballot: r.ballot, Slot: slot, Digest: digest, Value: value}
	r.ep.Multicast(r.cfg.Nodes, msgAccept, a)
	r.onAccept(r.cfg.Self, a)
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
		r.onSubmit(f)
	case msgPrepare:
		p, ok := m.Payload.(prepare)
		if !ok {
			return
		}
		r.onPrepare(m.From, p)
	case msgPromise:
		p, ok := m.Payload.(promise)
		if !ok {
			return
		}
		r.onPromise(m.From, p)
	case msgAccept:
		a, ok := m.Payload.(accept)
		if !ok {
			return
		}
		r.onAccept(m.From, a)
	case msgAccepted:
		a, ok := m.Payload.(accepted)
		if !ok {
			return
		}
		r.onAccepted(m.From, a)
	case msgDecide:
		d, ok := m.Payload.(decide)
		if !ok {
			return
		}
		r.learn(d.Slot, acceptedVal{Digest: d.Digest, Value: d.Value})
	case msgHeartbeat:
		hb, ok := m.Payload.(heartbeat)
		if !ok {
			return
		}
		if hb.Ballot >= r.leaderBallot {
			r.leaderBallot = hb.Ballot
			if ballotNode(hb.Ballot) != r.cfg.Self {
				r.setLeading(false)
				r.resetFollowerTimer()
				r.dispatchPending()
			}
		}
		// Crash recovery: the leader has applied past us, so decide
		// traffic we missed exists — ask for a replay. Heartbeats repeat
		// every Timeout/5, re-triggering until fully caught up.
		if hb.Applied > r.applied {
			r.cfg.Obs.Inc("paxos/sync_fetches")
			r.ep.Send(m.From, msgSyncReq, syncReq{From: r.applied + 1})
		}
	case msgSyncReq:
		q, ok := m.Payload.(syncReq)
		if !ok {
			return
		}
		// Replay a bounded window of decided slots. Slots up to r.applied
		// are contiguous in r.decided, so every slot in range answers.
		end := q.From + syncBatch - 1
		if end > r.applied {
			end = r.applied
		}
		for slot := q.From; slot <= end; slot++ {
			if v, ok := r.decided[slot]; ok {
				r.ep.Send(m.From, msgDecide, decide{Slot: slot, Digest: v.Digest, Value: v.Value})
			}
		}
	}
}

func (r *Replica) onPrepare(from types.NodeID, p prepare) {
	if p.Ballot <= r.promised {
		return // stale campaign; no NACK needed, the campaigner retries
	}
	r.promised = p.Ballot
	// Report accepted values for undecided slots so the new leader can
	// re-propose them.
	acc := map[uint64]acceptedVal{}
	for slot, v := range r.accepted {
		if _, done := r.decided[slot]; !done {
			acc[slot] = v
		}
	}
	if from == r.cfg.Self {
		r.onPromise(r.cfg.Self, promise{Ballot: p.Ballot, Accepted: acc})
		return
	}
	r.ep.Send(from, msgPromise, promise{Ballot: p.Ballot, Accepted: acc})
}

func (r *Replica) onPromise(from types.NodeID, p promise) {
	if p.Ballot != r.ballot || r.leading {
		return
	}
	r.promises[from] = p
	if len(r.promises) < r.cfg.Majority() {
		return
	}
	// Won phase 1: become leader.
	r.setLeading(true)
	r.leaderBallot = r.ballot
	r.ep.Multicast(r.cfg.Nodes, msgHeartbeat, heartbeat{Ballot: r.ballot, Applied: r.applied})
	r.timer.Reset(r.cfg.Timeout / 5)

	// Re-propose the highest-ballot accepted value per open slot and
	// advance nextSlot past everything seen.
	repropose := map[uint64]acceptedVal{}
	maxSlot := r.applied
	for _, pr := range r.promises {
		for slot, v := range pr.Accepted {
			if cur, ok := repropose[slot]; !ok || v.Ballot > cur.Ballot {
				repropose[slot] = v
			}
			if slot > maxSlot {
				maxSlot = slot
			}
		}
	}
	for slot := range r.decided {
		if slot > maxSlot {
			maxSlot = slot
		}
	}
	if r.nextSlot <= maxSlot {
		r.nextSlot = maxSlot + 1
	}
	for slot, v := range repropose {
		if _, done := r.decided[slot]; done {
			continue
		}
		r.phase2(slot, v.Digest, v.Value)
	}
	// Fill gaps below maxSlot with no-ops so learners can advance.
	for slot := r.applied + 1; slot <= maxSlot; slot++ {
		if _, done := r.decided[slot]; done {
			continue
		}
		if _, open := repropose[slot]; open {
			continue
		}
		r.phase2(slot, types.ZeroHash, nil)
	}
	r.dispatchPending()
}

func (r *Replica) onAccept(from types.NodeID, a accept) {
	if a.Ballot < r.promised {
		return
	}
	r.promised = a.Ballot
	r.accepted[a.Slot] = acceptedVal{Ballot: a.Ballot, Digest: a.Digest, Value: a.Value}
	if leaderID := ballotNode(a.Ballot); leaderID != r.cfg.Self {
		// Track the active leader for forwarding.
		if a.Ballot >= r.leaderBallot {
			r.leaderBallot = a.Ballot
			r.setLeading(false)
			r.resetFollowerTimer()
		}
		r.ep.Send(from, msgAccepted, accepted{Ballot: a.Ballot, Slot: a.Slot})
		return
	}
	r.onAccepted(r.cfg.Self, accepted{Ballot: a.Ballot, Slot: a.Slot})
}

func (r *Replica) onAccepted(from types.NodeID, a accepted) {
	if !r.leading || a.Ballot != r.ballot {
		return
	}
	votes, ok := r.acceptVotes[a.Slot]
	if !ok {
		return
	}
	votes[from] = true
	if len(votes) < r.cfg.Majority() {
		return
	}
	prop, ok := r.inFlight[a.Slot]
	if !ok {
		return
	}
	delete(r.inFlight, a.Slot)
	delete(r.acceptVotes, a.Slot)
	r.ep.Multicast(r.cfg.Nodes, msgDecide, decide{Slot: a.Slot, Digest: prop.Digest, Value: prop.Value})
	r.learn(a.Slot, prop)
}

func (r *Replica) learn(slot uint64, v acceptedVal) {
	if _, done := r.decided[slot]; done {
		return
	}
	r.decided[slot] = v
	for {
		next, ok := r.decided[r.applied+1]
		if !ok {
			break
		}
		r.applied++
		delete(r.pending, next.Digest)
		if next.Digest.IsZero() {
			continue
		}
		r.chosen[next.Digest] = true
		r.appliedSeq++
		r.cfg.Obs.MarkLatency("paxos/commit_latency", next.Digest, r.appliedSeq, obs.PhasePropose, obs.PhaseCommit)
		r.Decide(r.appliedSeq, next.Digest, next.Value)
	}
}
