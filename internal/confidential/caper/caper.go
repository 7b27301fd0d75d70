// Package caper implements the view-based confidentiality technique of
// CAPER (Amiri et al., VLDB'19) as presented in §2.3.1 of the tutorial:
// the blockchain ledger is a DAG of transactions that *no node stores in
// full* — each enterprise maintains only its own view, holding its
// internal transactions and every cross-enterprise transaction.
//
// Each enterprise runs its own fault-tolerant cluster that orders its
// internal transactions locally; cross-enterprise transactions are
// globally ordered in one of the three modes of the CAPER paper:
//
//   - OrderingService: a separate orderer cluster, trusted for ordering
//     only (it never sees application state);
//   - Flattened: one consensus group formed by the enterprises themselves
//     (one participant per enterprise, no extra nodes);
//   - Hierarchical: the initiating enterprise's cluster pre-orders the
//     transaction locally, then a top-level cluster fixes the global
//     order — two rounds, but local traffic stays local.
package caper

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/ledger"
	"permchain/internal/network"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

// Mode selects how cross-enterprise transactions are ordered (§2.3.1).
type Mode int

const (
	// OrderingService uses a dedicated orderer cluster; enterprises trust
	// it for ordering only.
	OrderingService Mode = iota
	// Flattened runs consensus among the enterprises themselves — one
	// participant per enterprise, no extra nodes.
	Flattened
	// Hierarchical pre-orders at the initiating enterprise's own cluster,
	// then globally at a top-level cluster (CAPER's two-level protocol).
	Hierarchical
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case OrderingService:
		return "ordering-service"
	case Flattened:
		return "flattened"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Enterprise is one collaborating organization: its own consensus
// cluster, its private view of the DAG ledger, and its application state.
// Public (cross-enterprise) state lives under "shared/" keys and is
// replicated in every enterprise's store; everything else is private.
type Enterprise struct {
	ID      types.EnterpriseID
	cluster *group
	dag     *ledger.DAG
	store   *statedb.Store

	lastLocal types.Hash // head of this enterprise's internal chain
	lastCross types.Hash // last cross-enterprise vertex in this view
	localSeq  uint64
	crossSeq  uint64
}

// View returns the enterprise's DAG view of the ledger.
func (e *Enterprise) View() *ledger.DAG { return e.dag }

// Store returns the enterprise's application state.
func (e *Enterprise) Store() *statedb.Store { return e.store }

// OrderedCount returns how many values the enterprise's own cluster has
// ordered: its internal transactions plus, in Hierarchical mode, the
// pre-order rounds of the cross-enterprise transactions it initiated.
func (e *Enterprise) OrderedCount() int { return e.cluster.orderedCount() }

// Network is a Caper deployment: enterprise clusters plus the global
// consensus for cross-enterprise transactions.
type Network struct {
	mode Mode
	mu   sync.Mutex
	ents map[types.EnterpriseID]*Enterprise

	net     *network.Network
	global  *group
	timeout time.Duration

	crossApplied int
}

// Config shapes a Caper network.
type Config struct {
	Enterprises int
	Mode        Mode
	// ClusterSize is each enterprise cluster's replica count (default 4).
	ClusterSize int
	// Orderers is the ordering-service / hierarchical-root cluster size
	// (default 4); in Flattened mode the global group has one participant
	// per enterprise instead.
	Orderers int
	// Timeout bounds consensus rounds.
	Timeout time.Duration
	// Net optionally supplies the transport (for latency/loss injection);
	// nil creates a fresh one.
	Net *network.Network
	// DisableSig turns off consensus message signatures (benchmarks).
	DisableSig bool
}

// NewNetwork creates and starts a Caper deployment.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Enterprises < 1 {
		return nil, errors.New("caper: need at least one enterprise")
	}
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = 4
	}
	if cfg.Orderers <= 0 {
		cfg.Orderers = 4
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Net == nil {
		cfg.Net = network.New()
	}
	n := &Network{
		mode:    cfg.Mode,
		ents:    map[types.EnterpriseID]*Enterprise{},
		net:     cfg.Net,
		timeout: cfg.Timeout,
	}
	// Every group shares the transport and one keyring, on disjoint
	// node-id ranges.
	keys := crypto.NewKeyring(0)
	cc := consensus.Config{Timeout: cfg.Timeout / 4, DisableSig: cfg.DisableSig}
	var next types.NodeID
	startGroup := func(size int, onDecide func(consensus.Decision)) *group {
		nodes := make([]types.NodeID, size)
		for i := range nodes {
			nodes[i] = next
			next++
		}
		return newGroup(nodes, cfg.Net, keys, cc, onDecide)
	}
	for i := 1; i <= cfg.Enterprises; i++ {
		id := types.EnterpriseID(i)
		n.ents[id] = &Enterprise{
			ID:      id,
			cluster: startGroup(cfg.ClusterSize, nil),
			dag:     ledger.NewDAG(),
			store:   statedb.New(),
		}
	}

	// The global ordering group: dedicated orderers for OrderingService
	// and Hierarchical; the enterprises themselves (one participant each,
	// no extra nodes) for Flattened.
	globalSize := cfg.Orderers
	if cfg.Mode == Flattened {
		globalSize = cfg.Enterprises
	}
	n.global = startGroup(globalSize, n.applyCross)
	return n, nil
}

// Close stops every cluster. Idempotent.
func (n *Network) Close() {
	n.global.stop()
	n.mu.Lock()
	ents := make([]*Enterprise, 0, len(n.ents))
	for _, e := range n.ents {
		ents = append(ents, e)
	}
	n.mu.Unlock()
	for _, e := range ents {
		e.cluster.stop()
	}
}

// Mode returns the deployment's cross-enterprise ordering mode.
func (n *Network) Mode() Mode { return n.mode }

// Enterprise returns the enterprise with the given id.
func (n *Network) Enterprise(id types.EnterpriseID) *Enterprise {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ents[id]
}

// EnterpriseIDs lists all enterprise ids.
func (n *Network) EnterpriseIDs() []types.EnterpriseID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]types.EnterpriseID, 0, len(n.ents))
	for id := range n.ents {
		out = append(out, id)
	}
	return out
}

// Transport exposes the underlying simulated network (for stats).
func (n *Network) Transport() *network.Network { return n.net }

// Caper errors.
var (
	ErrUnknownEnterprise = errors.New("caper: unknown enterprise")
	ErrWrongKind         = errors.New("caper: transaction kind does not match submission path")
	ErrPrivateKey        = errors.New("caper: cross-enterprise transaction touches private keys")
	ErrForeignKey        = errors.New("caper: internal transaction touches foreign or shared keys")
)

// SubmitInternal orders an internal transaction on its enterprise's own
// cluster, executes it on the enterprise's private state, and appends it
// only to that enterprise's view. Other enterprises never see it —
// confidentiality by construction.
func (n *Network) SubmitInternal(id types.EnterpriseID, tx *types.Transaction) error {
	if tx.Kind != types.TxInternal {
		return ErrWrongKind
	}
	// Internal transactions may only touch the enterprise's own keyspace.
	prefix := fmt.Sprintf("e%d/", id)
	for _, k := range tx.TouchedKeys() {
		if len(k) < len(prefix) || k[:len(prefix)] != prefix {
			return fmt.Errorf("%w: %q", ErrForeignKey, k)
		}
	}
	n.mu.Lock()
	e, ok := n.ents[id]
	n.mu.Unlock()
	if !ok {
		return ErrUnknownEnterprise
	}
	tx.Enterprise = id
	// Local consensus: the enterprise's own cluster orders the
	// transaction; no other enterprise participates or learns of it.
	if err := e.cluster.orderSync(tx, tx.Hash(), n.timeout); err != nil {
		return err
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	e.localSeq++
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	reads, writes, err := e.store.ExecuteList(types.Version{Block: e.localSeq, Tx: 0}, tx.Ops, sc)
	if err != nil {
		return err
	}
	tx.Reads, tx.Writes = slices.Clone(reads), slices.Clone(writes)

	var parents []types.Hash
	if !e.lastLocal.IsZero() {
		parents = append(parents, e.lastLocal)
	}
	if !e.lastCross.IsZero() && e.lastCross != e.lastLocal {
		parents = append(parents, e.lastCross)
	}
	v, err := e.dag.Append(tx, parents...)
	if err != nil {
		return err
	}
	e.lastLocal = v
	return nil
}

// SubmitCross submits a cross-enterprise transaction for global ordering.
// In Hierarchical mode the initiating enterprise (tx.Enterprise, default
// the first) pre-orders it locally before the top-level round. Once the
// global order fixes it, every enterprise executes it on the shared state
// and appends it to its own view. Asynchronous; use AwaitCrossCount.
func (n *Network) SubmitCross(tx *types.Transaction) error {
	if tx.Kind != types.TxCross {
		return ErrWrongKind
	}
	// Cross-enterprise transactions may only touch the shared keyspace —
	// internal data never appears in a globally-ordered transaction.
	for _, k := range tx.TouchedKeys() {
		if len(k) < 7 || k[:7] != "shared/" {
			return fmt.Errorf("%w: %q", ErrPrivateKey, k)
		}
	}
	if n.mode == Hierarchical {
		initiator := tx.Enterprise
		if initiator == 0 {
			initiator = 1
		}
		n.mu.Lock()
		e, ok := n.ents[initiator]
		n.mu.Unlock()
		if !ok {
			return ErrUnknownEnterprise
		}
		// Level 1: the initiator's cluster pre-orders the transaction,
		// fixing its position relative to the enterprise's internal flow.
		h := tx.Hash()
		if err := e.cluster.orderSync(tx, types.HashConcat([]byte("caper/pre"), h[:]), n.timeout); err != nil {
			return err
		}
	}
	// Level 2 (all modes): the global group fixes the cross order.
	n.global.submit(tx, tx.Hash())
	return nil
}

// applyCross applies one globally ordered cross-enterprise transaction
// to every view; the global group calls it in decision order.
func (n *Network) applyCross(d consensus.Decision) {
	tx, ok := d.Value.(*types.Transaction)
	if !ok {
		return
	}
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.ents {
		e.crossSeq++
		// Cross transactions execute deterministically on identical shared
		// state, so every enterprise gets the same result; a payload
		// failure is recorded by appending the vertex without effects.
		e.store.ExecuteList(types.Version{Block: 1 << 32, Tx: int(e.crossSeq)}, tx.Ops, sc)
		var parents []types.Hash
		if !e.lastCross.IsZero() {
			parents = append(parents, e.lastCross)
		}
		if !e.lastLocal.IsZero() && e.lastLocal != e.lastCross {
			parents = append(parents, e.lastLocal)
		}
		v, err := e.dag.Append(tx, parents...)
		if err != nil {
			continue
		}
		e.lastCross = v
	}
	n.crossApplied++
}

// AwaitCrossCount blocks until k cross-enterprise transactions have been
// applied to every view, or the timeout elapses.
func (n *Network) AwaitCrossCount(k int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		n.mu.Lock()
		done := n.crossApplied >= k
		n.mu.Unlock()
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// CrossSubsequence returns the ids of cross-enterprise transactions in an
// enterprise's view, in view order — identical across enterprises when
// the system is consistent.
func (n *Network) CrossSubsequence(id types.EnterpriseID) []string {
	n.mu.Lock()
	e := n.ents[id]
	n.mu.Unlock()
	if e == nil {
		return nil
	}
	var out []string
	for _, v := range e.dag.Filter(func(tx *types.Transaction) bool { return tx.Kind == types.TxCross }) {
		out = append(out, v.Tx.ID)
	}
	return out
}

// ViewSize approximates the bytes enterprise id stores: its view's
// transactions. The confidentiality experiment compares this to
// replicate-everything designs.
func (n *Network) ViewSize(id types.EnterpriseID) int {
	n.mu.Lock()
	e := n.ents[id]
	n.mu.Unlock()
	if e == nil {
		return 0
	}
	total := 0
	for _, v := range e.dag.Topo() {
		total += ledger.TxSize(v.Tx)
	}
	return total
}
