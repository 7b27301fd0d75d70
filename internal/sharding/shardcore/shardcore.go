// Package shardcore is the sharded deployment engine: N full durable
// pipelined core.Chains (one per shard, plus an optional reference
// committee), a deterministic key→shard Placement, per-shard 2PL lock
// tables, and one durable two-phase commit whose prepare/commit
// decisions are ordered through each participant shard's own consensus
// and persisted as decision records in the shard's block WAL
// (internal/store.DecisionRecord). The former per-protocol packages
// (ahl, sharper, saguaro, resilientdb) survive as CrossShardProtocol
// strategies that parameterize this one engine.
//
// Decision records ride inside marker transactions — an OpGet whose
// Value carries the encoded record — so they are consensus-ordered and
// crash-durable in the existing block WAL without touching world state:
// StateHash, storage accounting and replica agreement see only client
// effects. A participant that crashes between PREPARE and its outcome
// recovers by replaying the WAL: the in-doubt transaction's lock is
// re-asserted, the outcome is resolved (live coordinator state, any
// participant's outcome record, the coordinator's DECIDE record, or the
// flattened all-prepared rule, with presumed abort as the final word)
// and the missing outcome — including the transaction's effects, which
// the PREPARE record carries — is ordered through the recovered shard's
// consensus. No cross-shard transaction can commit on a strict subset
// of its participants, and no lock is lost.
package shardcore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"permchain/internal/arch"
	"permchain/internal/core"
	"permchain/internal/network"
	"permchain/internal/sharding/locktable"
	"permchain/internal/types"
)

// ErrStopped is returned for submissions after Stop.
var ErrStopped = errors.New("shardcore: sharded chain stopped")

// ErrXOVCrossShard rejects a sharded deployment with Arch XOV. Two-phase
// commit needs a participant that voted PREPARE to be able to commit, but
// XOV validates after ordering, so an MVCC abort could still follow the
// PREPARE and break that promise.
var ErrXOVCrossShard = errors.New("shardcore: XOV cannot run under cross-shard 2PC (an MVCC abort after PREPARE would break atomicity)")

// Chain is a sharded deployment: the unified object behind
// permchain.ShardedChain.
type Chain struct {
	base  core.Config         // per-shard template (Sharding stripped)
	scfg  core.ShardingConfig // defaulted shard topology
	proto CrossShardProtocol
	place Placement

	mu     sync.RWMutex // guards shards/ref swaps (RecoverShard)
	shards []*core.Chain
	ref    *core.Chain // reference committee; nil unless NeedsReference

	locks []*locktable.Table

	imu      sync.Mutex
	inflight map[string]*crossState

	// Replicated-mode global sequencer.
	seqCh chan seqItem
	seqMu sync.Mutex // excludes the sequencer during RecoverShard leveling
	dead  []bool     // shards the sequencer currently skips (crashed)

	stopCh  chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped atomic.Bool

	crossCommitted atomic.Int64
	crossAborted   atomic.Int64

	// AfterPrepare, when set, runs on the coordinator goroutine after
	// every participant durably prepared and before the decision is
	// ordered — the seam fault experiments use to crash a participant
	// exactly mid-2PC.
	AfterPrepare func(txID string)
}

// New builds a fresh sharded deployment from cfg (whose Sharding field
// must be set) and the cross-shard strategy. Every shard is a full
// core.Chain shaped by cfg — same architecture, protocol, block size,
// pipeline, and (when cfg.Store is set) its own WAL and snapshots under
// Store.Dir/shard-<i>.
func New(cfg core.Config, proto CrossShardProtocol) (*Chain, error) {
	return build(cfg, proto, core.New)
}

// Open recovers a sharded deployment from disk: every shard chain
// replays its WAL, then in-doubt cross-shard transactions are resolved
// from their decision records (replicated deployments instead re-level
// lagging shards by replaying the missing transaction suffix). The
// deployment is started and ready for submissions when Open returns.
func Open(cfg core.Config, proto CrossShardProtocol) (*Chain, error) {
	s, err := build(cfg, proto, core.OpenChain)
	if err != nil {
		return nil, err
	}
	s.Start()
	if s.proto.Replicated() {
		if err := s.levelReplicated(); err != nil {
			s.Stop()
			return nil, err
		}
	} else {
		for i := range s.shards {
			if err := s.resolveInDoubt(types.ShardID(i)); err != nil {
				s.Stop()
				return nil, err
			}
		}
	}
	return s, nil
}

func build(cfg core.Config, proto CrossShardProtocol, mk func(core.Config) (*core.Chain, error)) (*Chain, error) {
	if cfg.Sharding == nil {
		return nil, errors.New("shardcore: Config.Sharding must be set")
	}
	if proto == nil {
		return nil, errors.New("shardcore: nil protocol strategy")
	}
	if cfg.Net != nil {
		return nil, errors.New("shardcore: per-shard networks are owned by the sharded chain; leave Config.Net nil")
	}
	if cfg.Arch == core.XOV {
		return nil, ErrXOVCrossShard
	}
	scfg := *cfg.Sharding
	if scfg.Shards <= 0 {
		scfg.Shards = 2
	}
	if scfg.CrossTimeout <= 0 {
		scfg.CrossTimeout = 10 * time.Second
	}
	if scfg.LockTTL <= 0 {
		scfg.LockTTL = 2 * scfg.CrossTimeout
	}
	s := &Chain{
		base:     cfg,
		scfg:     scfg,
		proto:    proto,
		place:    NewPlacement(scfg.Shards),
		shards:   make([]*core.Chain, scfg.Shards),
		locks:    make([]*locktable.Table, scfg.Shards),
		inflight: make(map[string]*crossState),
		dead:     make([]bool, scfg.Shards),
		stopCh:   make(chan struct{}),
	}
	s.base.Sharding = nil
	for i := range s.shards {
		ch, err := mk(s.shardConfig(types.ShardID(i)))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = ch
		s.locks[i] = locktable.New(scfg.LockTTL)
	}
	if proto.NeedsReference() {
		ch, err := mk(s.shardConfig(types.ShardID(scfg.Shards)))
		if err != nil {
			return nil, fmt.Errorf("reference chain: %w", err)
		}
		s.ref = ch
	}
	if proto.Replicated() {
		s.seqCh = make(chan seqItem, 1024)
	}
	return s, nil
}

// shardConfig derives shard id's core.Config from the template: its own
// in-process network (with the configured committee link latency), its
// own store directory, the shared Obs.
func (s *Chain) shardConfig(id types.ShardID) core.Config {
	cfg := s.base
	if s.scfg.IntraShardLatency > 0 {
		opts := []network.Option{network.WithUniformLatency(s.scfg.IntraShardLatency)}
		if cfg.WireCodec {
			opts = append(opts, network.WithWireCodec())
		}
		cfg.Net = network.New(opts...)
	}
	if cfg.Store != nil {
		st := *cfg.Store
		st.Dir = filepath.Join(st.Dir, dirFor(id, s.scfg.Shards))
		cfg.Store = &st
	}
	return cfg
}

func dirFor(id types.ShardID, shards int) string {
	if int(id) == shards {
		return "shard-ref"
	}
	return fmt.Sprintf("shard-%d", id)
}

// Start starts every shard chain (and the reference committee and, in
// replicated mode, the global sequencer). Idempotent.
func (s *Chain) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for _, ch := range s.shards {
		ch.Start()
	}
	if s.ref != nil {
		s.ref.Start()
	}
	if s.proto.Replicated() {
		s.wg.Add(1)
		go s.sequencer()
	}
}

// Stop stops the deployment: the sequencer drains, every shard chain
// stops (flushing partial batches), and unsettled spanning receipts
// fail with ErrStopped. Idempotent.
func (s *Chain) Stop() { s.shutdown(false) }

// Crash stops every shard abruptly — no flush, snapshots or WAL
// truncation beyond what already hit disk — for recovery tests.
func (s *Chain) Crash() { s.shutdown(true) }

func (s *Chain) shutdown(crash bool) {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	close(s.stopCh)
	s.mu.RLock()
	shards, ref := append([]*core.Chain(nil), s.shards...), s.ref
	s.mu.RUnlock()
	// Chains die first so in-flight 2PC goroutines fail fast instead of
	// blocking shutdown on their phase timeouts; then the waitgroup
	// drains.
	for _, ch := range shards {
		if crash {
			ch.Crash()
		} else {
			ch.Stop()
		}
	}
	if ref != nil {
		if crash {
			ref.Crash()
		} else {
			ref.Stop()
		}
	}
	s.wg.Wait()
	s.imu.Lock()
	states := make([]*crossState, 0, len(s.inflight))
	for _, st := range s.inflight {
		states = append(states, st)
	}
	s.imu.Unlock()
	for _, st := range states {
		st.rcpt.fail(ErrStopped)
	}
}

// NumShards returns the data-shard count.
func (s *Chain) NumShards() int { return s.scfg.Shards }

// Protocol returns the cross-shard strategy in use.
func (s *Chain) Protocol() CrossShardProtocol { return s.proto }

// Placement returns the deployment's key→shard function.
func (s *Chain) Placement() Placement { return s.place }

// Shard returns shard i's chain (i == NumShards addresses the
// reference committee, when one exists).
func (s *Chain) Shard(i types.ShardID) *core.Chain {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(i) == s.scfg.Shards {
		return s.ref
	}
	return s.shards[i]
}

// Aborted returns how many cross-shard transactions aborted.
func (s *Chain) Aborted() int64 { return s.crossAborted.Load() }

// CrossCommitted returns how many cross-shard transactions committed on
// every participant.
func (s *Chain) CrossCommitted() int64 { return s.crossCommitted.Load() }

// LockTable returns shard i's 2PL lock table (tests and experiments
// use it to fabricate contention and audit leases).
func (s *Chain) LockTable(i types.ShardID) *locktable.Table { return s.locks[i] }

// LockCount returns the live 2PL locks across every shard's table.
func (s *Chain) LockCount() int {
	n := 0
	for _, lt := range s.locks {
		n += lt.Count()
	}
	return n
}

// TotalStorage sums every shard's node-0 world-state size — the
// deployment's storage footprint in keys (replicated deployments pay
// shards × keys; partitioned ones pay each key once).
func (s *Chain) TotalStorage() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ch := range s.shards {
		n += ch.Node(0).Store().Len()
	}
	if s.ref != nil {
		n += s.ref.Node(0).Store().Len()
	}
	return n
}

// Flush asks every shard chain to cut partial batches.
func (s *Chain) Flush() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ch := range s.shards {
		ch.Flush()
	}
	if s.ref != nil {
		s.ref.Flush()
	}
}

// Await blocks until every shard chain satisfies spec (same semantics
// as core.Chain.Await, applied per shard).
func (s *Chain) Await(spec core.AwaitSpec) bool {
	s.mu.RLock()
	shards := append([]*core.Chain(nil), s.shards...)
	s.mu.RUnlock()
	for _, ch := range shards {
		if !ch.Await(spec) {
			return false
		}
	}
	return true
}

// Submit routes the transaction and blocks until its spanning receipt
// settles, returning nil only when every participant shard durably
// committed.
func (s *Chain) Submit(tx *types.Transaction) error {
	r, err := s.SubmitAsync(tx)
	if err != nil {
		return err
	}
	return r.Wait(0)
}

// SubmitAsync routes the transaction by placement: single-shard
// transactions go straight into their shard's pipeline (no locks, no
// records — the shard's own consensus is the whole story); cross-shard
// transactions run the durable 2PC; replicated deployments sequence
// every transaction onto every shard. The receipt settles when every
// participant durably committed, or on abort/failure.
func (s *Chain) SubmitAsync(tx *types.Transaction) (*Receipt, error) {
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	if s.proto.Replicated() {
		return s.submitReplicated(tx)
	}
	parts := s.place.Participants(tx)
	if len(parts) == 0 {
		return nil, errors.New("shardcore: transaction touches no keys")
	}
	if len(parts) == 1 {
		return s.submitIntra(tx, parts[0])
	}
	ops, err := s.place.Split(tx)
	if err != nil {
		return nil, err
	}
	rcpt := newSpanningReceipt(tx.ID, parts)
	st := newCrossState(tx, parts, ops, rcpt)
	s.imu.Lock()
	s.inflight[tx.ID] = st
	s.imu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runCross(st)
	}()
	return rcpt, nil
}

// submitIntra forwards a single-shard transaction into its shard's
// pipeline and folds the shard receipt into a spanning one.
func (s *Chain) submitIntra(tx *types.Transaction, sh types.ShardID) (*Receipt, error) {
	rcpt := newSpanningReceipt(tx.ID, []types.ShardID{sh})
	r, err := s.Shard(sh).SubmitAsync(tx)
	if err != nil {
		return nil, err
	}
	r.OnSettle(func(cr *core.Receipt) {
		switch {
		case cr.Err() != nil:
			rcpt.fail(cr.Err())
		case cr.Status() == arch.TxAborted:
			rcpt.abort()
		default:
			rcpt.shardCommitted(sh, cr.Height())
		}
	})
	return rcpt, nil
}

// seqItem is one replicated-mode submission.
type seqItem struct {
	tx   *types.Transaction
	rcpt *Receipt
}

func (s *Chain) submitReplicated(tx *types.Transaction) (*Receipt, error) {
	rcpt := &Receipt{txID: tx.ID, done: make(chan struct{}), heights: map[types.ShardID]uint64{}}
	select {
	case s.seqCh <- seqItem{tx: tx, rcpt: rcpt}:
		return rcpt, nil
	case <-s.stopCh:
		return nil, ErrStopped
	}
}

// sequencer is replicated mode's single global orderer: one goroutine
// submits every transaction to every live shard chain in the same
// order, so all shards hold the same ledger prefix (the property
// replicated recovery's suffix replay relies on). There are no locks
// and no decision records — full replication is the degenerate case of
// cross-shard coordination, exactly as in ResilientDB's comparison.
func (s *Chain) sequencer() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			for {
				select {
				case item := <-s.seqCh:
					item.rcpt.fail(ErrStopped)
				default:
					return
				}
			}
		case item := <-s.seqCh:
			s.seqMu.Lock()
			s.sequence(item)
			s.seqMu.Unlock()
		}
	}
}

func (s *Chain) sequence(item seqItem) {
	live := make([]types.ShardID, 0, s.scfg.Shards)
	for i := range s.shards {
		if !s.dead[i] {
			live = append(live, types.ShardID(i))
		}
	}
	if len(live) == 0 {
		item.rcpt.fail(errors.New("shardcore: no live shards"))
		return
	}
	item.rcpt.mu.Lock()
	item.rcpt.remaining = len(live)
	item.rcpt.mu.Unlock()
	for _, sh := range live {
		sh := sh
		r, err := s.Shard(sh).SubmitAsync(item.tx)
		if err != nil {
			// The shard died mid-sequence: skip it from now on;
			// recovery re-levels it from a live shard's ledger.
			s.dead[sh] = true
			item.rcpt.shardCommitted(sh, 0)
			continue
		}
		r.OnSettle(func(cr *core.Receipt) {
			if cr.Err() != nil || cr.Status() == arch.TxAborted {
				item.rcpt.shardCommitted(sh, 0)
				return
			}
			item.rcpt.shardCommitted(sh, cr.Height())
		})
	}
}
