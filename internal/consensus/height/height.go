// Package height is the engine shared by the height-based PBFT-family
// protocols, IBFT and Tendermint (§2.2, §2.3.3 of the tutorial). Both
// decide one height at a time through three voting phases, rotate the
// proposer round-robin and help a lagging validator catch up by replaying
// decided heights; this package owns everything they do the same way:
//
//   - the event loop with its low-rate progress gossip (the lifecycle
//     around it is consensus.Loop);
//   - request multicast and the pending queue;
//   - the bounded buffer for messages from future heights and its replay;
//   - height sync (syncReq/syncRep) with quorum-guarded adoption;
//   - the per-height decided history;
//   - the protocol-independent half of a decision;
//   - proposer rotation and voting power from an optional stake table.
//
// A protocol keeps only its own message types, round state and phase
// rules, and plugs them in through Protocol.
package height

import (
	"time"

	"permchain/internal/consensus"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/types"
)

// syncBatch bounds how many decided heights one sync request replays, and
// so the window of heights a laggard accepts replies for.
const syncBatch = 64

// maxFuture bounds the future-height buffer so a Byzantine flood cannot
// grow memory without limit.
const maxFuture = 100000

// Protocol is the part of a height-based protocol the engine calls back.
// Every call runs on the engine's event-loop goroutine.
type Protocol interface {
	// StartRound starts the protocol's current round at the current height;
	// the engine calls it when an idle height gets work.
	StartRound()
	// OnMessage handles a protocol message from a member. Messages for a
	// later height go to Engine.Buffer.
	OnMessage(m network.Message)
	// OnTimeout handles an expired round timer while the height is active.
	OnTimeout()
	// ResetHeight clears per-height round state after a decision.
	ResetHeight()
}

// Names are the per-protocol strings the engine emits: the metric prefix
// and the message types of its three messages.
type Names struct {
	Metric                    string
	Request, SyncReq, SyncRep string
}

// request carries a submitted value to every validator: any of them may be
// the proposer who includes it. The history stores decided heights in the
// same shape.
type request struct {
	Digest types.Hash
	Value  any
}

// syncReq advertises the sender's next undecided height; peers that have
// decided it reply with the missing heights. It doubles as low-rate
// progress gossip: a receiver that is itself behind the advertised height
// learns so and issues its own request.
type syncReq struct {
	Height uint64
}

// syncRep carries one decided height. Adoption is quorum-guarded: a
// laggard applies a height only once replies carrying more than one third
// of total voting power agree on the digest — more than Byzantine
// validators can muster, so at least one correct validator vouches.
type syncRep struct {
	Height uint64
	Digest types.Hash
	Value  any
}

// Engine is one validator's height state machine minus the phase rules.
// It implements consensus.Replica; protocols embed it.
type Engine struct {
	*consensus.Loop
	cfg   consensus.Config
	names Names
	p     Protocol
	ep    *network.Endpoint

	power map[types.NodeID]int64
	total int64
	order []types.NodeID // proposer rotation, stake-proportional

	// Event-loop state.
	height     uint64
	active     bool
	values     map[types.Hash]any
	pending    []types.Hash
	pendingSet map[types.Hash]bool
	decided    map[types.Hash]bool
	future     []network.Message
	history    map[uint64]request // decided height → (digest, value), for laggard replay
	syncVotes  map[uint64]map[types.NodeID]syncRep
	lastSync   uint64 // height of the last sync request sent (dedupe)
	timer      *consensus.LoopTimer
}

// New creates the engine for protocol p. stakes aligns with cfg.Nodes; nil
// gives every validator power 1, so the rotation is Nodes[(h+r) mod n].
// cfg must already be defaulted. Call Start to launch the loop.
func New(cfg consensus.Config, stakes []int64, names Names, p Protocol) *Engine {
	e := &Engine{
		Loop:       consensus.NewLoop(cfg, names.Metric),
		cfg:        cfg,
		names:      names,
		p:          p,
		ep:         cfg.Net.Join(cfg.Self),
		power:      map[types.NodeID]int64{},
		height:     1,
		values:     map[types.Hash]any{},
		pendingSet: map[types.Hash]bool{},
		decided:    map[types.Hash]bool{},
		history:    map[uint64]request{},
		syncVotes:  map[uint64]map[types.NodeID]syncRep{},
		timer:      consensus.NewLoopTimer(),
	}
	for i, id := range cfg.Nodes {
		s := int64(1)
		if stakes != nil {
			s = stakes[i]
		}
		if s < 1 {
			s = 1
		}
		e.power[id] = s
		e.total += s
		// The rotation schedule lists each validator once per unit of
		// stake: a validator with twice the stake proposes twice as often.
		for k := int64(0); k < s; k++ {
			e.order = append(e.order, id)
		}
	}
	return e
}

// Start implements consensus.Replica.
func (e *Engine) Start() { e.Loop.Start(e.run) }

// Height returns the next undecided height.
func (e *Engine) Height() uint64 { return e.height }

// Proposer returns the rotation slot for (height, round): the proposer
// changes every height and every round.
func (e *Engine) Proposer(height, round uint64) types.NodeID {
	return e.order[int((height+round)%uint64(len(e.order)))]
}

// PowerFor sums the voting power behind digest d in votes; with no stake
// table it counts the voters.
func (e *Engine) PowerFor(votes map[types.NodeID]types.Hash, d types.Hash) int64 {
	var p int64
	for id, v := range votes {
		if v == d {
			p += e.power[id]
		}
	}
	return p
}

// TotalPower returns the validators' summed voting power.
func (e *Engine) TotalPower() int64 { return e.total }

// Multicast sends a protocol message to every validator.
func (e *Engine) Multicast(typ string, payload any) {
	e.ep.Multicast(e.cfg.Nodes, typ, payload)
}

// ResetTimer (re)arms the round timer.
func (e *Engine) ResetTimer(d time.Duration) { e.timer.Reset(d) }

// SetActive marks the current height as in progress: protocol traffic for
// it arrived, so timeouts apply even before local work does.
func (e *Engine) SetActive() { e.active = true }

// Learn records the value behind digest d.
func (e *Engine) Learn(d types.Hash, v any) { e.values[d] = v }

// Value returns the value behind digest d.
func (e *Engine) Value(d types.Hash) any { return e.values[d] }

// NextPending returns the oldest pending request not yet decided.
func (e *Engine) NextPending() (types.Hash, any, bool) {
	e.dropDecided()
	if len(e.pending) == 0 {
		return types.ZeroHash, nil, false
	}
	d := e.pending[0]
	return d, e.values[d], true
}

func (e *Engine) run(stop <-chan struct{}, submits <-chan consensus.Submission) {
	defer e.timer.Stop()
	// Low-rate progress gossip: advertising our next undecided height lets
	// a restarted or partitioned-away validator discover it is behind even
	// when the cluster is otherwise idle.
	gossip := time.NewTicker(e.cfg.Timeout * 4)
	defer gossip.Stop()
	for {
		select {
		case <-stop:
			return
		case s := <-submits:
			req := request(s)
			e.Multicast(e.names.Request, req)
			e.onRequest(req)
		case m := <-e.ep.Inbox():
			e.onMessage(m)
		case <-e.timer.C():
			if e.active {
				e.p.OnTimeout()
			}
		case <-gossip.C:
			if e.height > 1 {
				e.Multicast(e.names.SyncReq, syncReq{Height: e.height})
			}
		}
	}
}

func (e *Engine) onMessage(m network.Message) {
	if !e.cfg.IsMember(m.From) {
		return // not part of this replica group
	}
	switch m.Type {
	case e.names.Request:
		if req, ok := m.Payload.(request); ok {
			e.onRequest(req)
		}
	case e.names.SyncReq:
		if q, ok := m.Payload.(syncReq); ok {
			e.onSyncReq(m.From, q)
		}
	case e.names.SyncRep:
		if rep, ok := m.Payload.(syncRep); ok {
			e.onSyncRep(m.From, rep)
		}
	default:
		e.p.OnMessage(m)
	}
}

func (e *Engine) onRequest(req request) {
	if e.decided[req.Digest] || e.pendingSet[req.Digest] {
		return
	}
	e.values[req.Digest] = req.Value
	e.pendingSet[req.Digest] = true
	e.pending = append(e.pending, req.Digest)
	e.ensureActive()
}

// ensureActive starts the protocol when there is work.
func (e *Engine) ensureActive() {
	if e.active || len(e.pending) == 0 {
		return
	}
	e.active = true
	e.p.StartRound()
}

func (e *Engine) dropDecided() {
	for len(e.pending) > 0 && e.decided[e.pending[0]] {
		delete(e.pendingSet, e.pending[0])
		e.pending = e.pending[1:]
	}
}

// Buffer holds m, a message for height h, when h is above the current
// height and reports whether it did; the protocol handles m otherwise.
func (e *Engine) Buffer(m network.Message, h uint64) bool {
	if h <= e.height {
		return false
	}
	if len(e.future) < maxFuture {
		e.future = append(e.future, m)
	}
	// Traffic for a future height means the cluster decided heights we
	// missed (crash, partition): request a replay. Deduped per height —
	// each adopted batch re-triggers naturally as buffered messages replay.
	if e.lastSync != e.height {
		e.lastSync = e.height
		e.requestSync()
	}
	return true
}

func (e *Engine) requestSync() {
	e.cfg.Obs.Inc(e.names.Metric + "/sync_fetches")
	e.Multicast(e.names.SyncReq, syncReq{Height: e.height})
}

func (e *Engine) onSyncReq(from types.NodeID, q syncReq) {
	if q.Height < e.height {
		// The asker is behind: replay a bounded window of decided heights.
		end := min(q.Height+syncBatch, e.height)
		for h := q.Height; h < end; h++ {
			if req, ok := e.history[h]; ok {
				e.ep.Send(from, e.names.SyncRep, syncRep{Height: h, Digest: req.Digest, Value: req.Value})
			}
		}
		return
	}
	if q.Height > e.height {
		// The asker is ahead: we are the laggard. Gossip repeats every few
		// timeouts, so requesting on every such beacon also retries after
		// lost replies.
		e.requestSync()
	}
}

// onSyncRep records a reply for a height in [height, height+syncBatch),
// the only window one of our requests can solicit; anything else would
// grow syncVotes without bound.
func (e *Engine) onSyncRep(from types.NodeID, rep syncRep) {
	if rep.Height < e.height || rep.Height >= e.height+syncBatch {
		return
	}
	m, ok := e.syncVotes[rep.Height]
	if !ok {
		m = map[types.NodeID]syncRep{}
		e.syncVotes[rep.Height] = m
	}
	m[from] = rep
	e.trySyncDecide()
}

// trySyncDecide adopts replayed heights in order once each gathers replies
// worth more than one third of total voting power on one digest.
func (e *Engine) trySyncDecide() {
	for {
		rep, ok := e.syncWinner(e.syncVotes[e.height])
		if !ok {
			return
		}
		e.values[rep.Digest] = rep.Value
		e.Decide(rep.Digest) // advances e.height; loop to check the next one
	}
}

func (e *Engine) syncWinner(votes map[types.NodeID]syncRep) (syncRep, bool) {
	powers := map[types.Hash]int64{}
	for id, rep := range votes {
		powers[rep.Digest] += e.power[id]
		if 3*powers[rep.Digest] > e.total {
			return rep, true
		}
	}
	return syncRep{}, false
}

func (e *Engine) replayFuture() {
	msgs := e.future
	e.future = nil
	for _, m := range msgs {
		e.onMessage(m)
	}
}

// Decide commits digest d at the current height: it records and emits the
// decision, resets the protocol for the next height and replays buffered
// traffic for it.
func (e *Engine) Decide(d types.Hash) {
	val := e.values[d]
	e.decided[d] = true
	e.history[e.height] = request{Digest: d, Value: val}
	delete(e.syncVotes, e.height)
	e.cfg.Obs.MarkLatency(e.names.Metric+"/commit_latency", d, e.height, obs.PhasePropose, obs.PhaseCommit)
	e.Loop.Decide(e.height, d, val)

	e.height++
	e.p.ResetHeight()
	e.dropDecided()
	e.active = false
	e.timer.Stop()
	e.replayFuture()
	e.ensureActive()
}
