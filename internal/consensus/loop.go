package consensus

import (
	"sync"

	"permchain/internal/obs"
	"permchain/internal/types"
)

// Submission is one value handed to Submit, as the run body receives it.
// Each protocol converts it to its own wire request type.
type Submission struct {
	Digest types.Hash
	Value  any
}

// Loop states: new → running → stopped, or new → stopped. Nothing leaves
// stopped.
const (
	loopNew = iota
	loopRunning
	loopStopped
)

// Loop is the replica lifecycle every protocol embeds: it supplies ID,
// Decisions, Submit and Stop, runs the protocol's event-loop body between
// Start and Stop, and emits decisions through Decide. Start runs only from
// new; Stop is idempotent and safe from every state.
type Loop struct {
	self      types.NodeID
	obs       *obs.Obs
	decisions string // "<proto>/decisions" counter

	// Buffered deep enough that the loop never blocks on a slow
	// Decisions reader or a submit burst in experiment workloads.
	decCh    chan Decision
	submitCh chan Submission
	stopCh   chan struct{}
	done     chan struct{}

	mu    sync.Mutex
	state int
}

// NewLoop returns a new Loop for replica cfg.Self; metric names the
// protocol in its decisions counter.
func NewLoop(cfg Config, metric string) *Loop {
	return &Loop{
		self:      cfg.Self,
		obs:       cfg.Obs,
		decisions: metric + "/decisions",
		decCh:     make(chan Decision, 65536),
		submitCh:  make(chan Submission, 65536),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// ID implements Replica.
func (l *Loop) ID() types.NodeID { return l.self }

// Decisions implements Replica.
func (l *Loop) Decisions() <-chan Decision { return l.decCh }

// Start launches run on its own goroutine if the Loop is new, and does
// nothing otherwise. run receives every Submit in order on submits and
// must return once stop is closed.
func (l *Loop) Start(run func(stop <-chan struct{}, submits <-chan Submission)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != loopNew {
		return
	}
	l.state = loopRunning
	go func() {
		defer close(l.done)
		run(l.stopCh, l.submitCh)
	}()
}

// Stop implements Replica: from new it returns at once, from running it
// waits for the body to return.
func (l *Loop) Stop() {
	l.mu.Lock()
	switch l.state {
	case loopNew:
		close(l.done) // no body ever runs
		fallthrough
	case loopRunning:
		close(l.stopCh)
		l.state = loopStopped
	}
	l.mu.Unlock()
	<-l.done
}

// Submit implements Replica. After Stop it never blocks.
func (l *Loop) Submit(value any, digest types.Hash) {
	l.obs.Mark(digest, 0, obs.PhaseSubmit)
	select {
	case l.submitCh <- Submission{Digest: digest, Value: value}:
	case <-l.stopCh:
	}
}

// Decide marks the apply phase, counts the decision and sends it to
// Decisions. Only the run body calls it.
func (l *Loop) Decide(seq uint64, digest types.Hash, value any) {
	l.obs.Mark(digest, seq, obs.PhaseApply)
	l.obs.Inc(l.decisions)
	l.decCh <- Decision{Seq: seq, Digest: digest, Value: value, Node: l.self}
}
