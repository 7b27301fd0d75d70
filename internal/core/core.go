// Package core assembles the pieces of permchain into a runnable
// permissioned blockchain (Figure 1 of the tutorial): n identified nodes,
// each holding its own copy of the hash-chained ledger and world state,
// agree on the order of transaction batches through a pluggable consensus
// protocol (§2.2) and process them through a pluggable transaction
// architecture (§2.3.3).
//
// Consensus orders *batches*; every node then forms the block locally —
// height, parent hash, Merkle root — so each node's ledger is built from
// its own view and the Figure 1 property (all copies identical) is an
// emergent, testable invariant rather than an assumption.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"permchain/internal/arch"
	"permchain/internal/arch/ox"
	"permchain/internal/arch/oxii"
	"permchain/internal/arch/xov"
	"permchain/internal/consensus"
	"permchain/internal/consensus/hotstuff"
	"permchain/internal/consensus/ibft"
	"permchain/internal/consensus/paxos"
	"permchain/internal/consensus/pbft"
	"permchain/internal/consensus/raft"
	"permchain/internal/consensus/tendermint"
	"permchain/internal/crypto"
	"permchain/internal/ledger"
	"permchain/internal/mempool"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/quorumcert"
	"permchain/internal/statedb"
	"permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/wire"
)

// Protocol selects the ordering protocol.
type Protocol int

// The supported ordering protocols.
const (
	PBFT Protocol = iota
	Raft
	Paxos
	Tendermint
	HotStuff
	IBFT
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case PBFT:
		return "pbft"
	case Raft:
		return "raft"
	case Paxos:
		return "paxos"
	case Tendermint:
		return "tendermint"
	case HotStuff:
		return "hotstuff"
	case IBFT:
		return "ibft"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Architecture selects the transaction-processing architecture (§2.3.3).
type Architecture int

// The supported architectures.
const (
	// OX is order-execute: sequential execution after consensus.
	OX Architecture = iota
	// OXII is order-parallel-execute: ParBlockchain dependency graphs.
	OXII
	// XOV is execute-order-validate: Fabric-style optimistic processing.
	XOV
)

// String names the architecture.
func (a Architecture) String() string {
	switch a {
	case OX:
		return "OX"
	case OXII:
		return "OXII"
	case XOV:
		return "XOV"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Config shapes a chain.
type Config struct {
	// Nodes is the replica count (default 4).
	Nodes int
	// Protocol is the ordering protocol (default PBFT).
	Protocol Protocol
	// Arch is the processing architecture (default OX).
	Arch Architecture
	// XOVOptions tunes the Fabric-family optimizations when Arch == XOV.
	XOVOptions xov.Options
	// BlockSize is the max transactions per block (default 64).
	BlockSize int
	// FlushEvery bounds how long a partial batch waits (default 20ms).
	FlushEvery time.Duration
	// Timeout is the consensus failure-detection timeout.
	Timeout time.Duration
	// WorkFactor models smart-contract execution cost per operation.
	WorkFactor int
	// Workers bounds parallel execution (OXII/XOV); 0 = GOMAXPROCS.
	Workers int
	// DisableSig turns off consensus message signatures.
	DisableSig bool
	// AggregateVotes switches the BFT vote phases to Schnorr quorum
	// certificates (internal/quorumcert): replicas send signature shares to
	// the leader/primary, which broadcasts one constant-size certificate per
	// phase instead of all-to-all counted votes. One Schnorr key set is
	// shared by every replica of the chain. Honored by PBFT and HotStuff;
	// other protocols ignore it.
	AggregateVotes bool
	// BatchVotes coalesces outbound vote traffic per destination through a
	// network.VoteBatcher (one envelope per peer per flush).
	BatchVotes bool
	// Net optionally supplies a transport (latency/loss injection).
	Net *network.Network
	// WireCodec runs the transport in serialized mode: every consensus
	// payload is encoded through the shared wire codec on send and
	// decoded on delivery (network.WithWireCodec), so benchmarks charge
	// real marshalling cost and per-message bytes are measurable. When
	// Net is supplied, its mode must agree — a wire-codec node cannot
	// interoperate with struct-pointer peers, and build fails fast with
	// ErrWireModeMismatch instead of letting frames silently misdecode.
	WireCodec bool
	// Stakes configures Tendermint voting power (optional).
	Stakes []int64
	// HistoryLimit retains up to this many historical versions per key on
	// every node's state, enabling provenance queries (0 disables).
	HistoryLimit int
	// Obs optionally attaches the observability layer: one registry and
	// tracer shared by every replica, engine, and the transport. Nil
	// disables instrumentation.
	Obs *obs.Obs
	// ApplyQueue bounds each node's apply queue — the buffer between
	// consensus intake and the executor stage of the commit pipeline.
	// When an executor stalls, intake blocks once the queue is full, so
	// decided-but-unapplied batches occupy bounded memory. Default 64.
	ApplyQueue int
	// Store attaches the durable storage engine: when non-nil, every node
	// persists its blocks to a segmented write-ahead log under
	// Store.Dir/node-<i> and (when Store.SnapshotEvery > 0) writes periodic
	// state snapshots. New requires the directory to hold no blocks; use
	// OpenChain to recover a crashed chain from disk.
	Store *store.Config
	// Sharding partitions the deployment horizontally: when non-nil, the
	// configuration describes a fleet of shard chains (each one a full
	// durable pipelined chain shaped by the rest of this Config) joined by
	// cross-shard two-phase commit. A sharded config must be built with
	// the sharded constructors (permchain.NewShardedChain /
	// shardcore.New); New and OpenChain reject it so a single chain can
	// never silently ignore the shard topology.
	Sharding *ShardingConfig
	// Mempool attaches the bounded admission layer in front of the
	// commit pipeline: submissions are deduplicated by digest, capped by
	// a hard capacity and per-client fair-share quotas (typed rejections
	// with retry-after hints instead of unbounded queueing), and handed
	// to consensus in batches formed by size or deadline. Unset fields
	// inherit the chain's shape: BatchSize from BlockSize, BatchDeadline
	// from FlushEvery, Obs from Config.Obs. Nil keeps the direct
	// unbounded submit path.
	Mempool *mempool.Config
}

// ShardingConfig nests the shard topology inside Config — one Config
// shape for single and sharded chains, instead of a parallel Options
// struct. The strategy names map to the §2.3.4 protocol implementations
// under internal/sharding.
type ShardingConfig struct {
	// Shards is the data-shard count (default 2).
	Shards int
	// Protocol names the cross-shard coordination strategy: "sharper"
	// (default; flattened consensus among the involved shards), "ahl"
	// (2PC through a dedicated reference chain), "saguaro" (2PC through a
	// tree-LCA coordinator shard), or "resilientdb" (single-ledger full
	// replication, no cross-shard concept).
	Protocol string
	// Fanout shapes the saguaro coordination tree (default 2).
	Fanout int
	// CrossTimeout bounds each cross-shard phase: lock acquisition and
	// every per-shard durable ordering round (default 10s).
	CrossTimeout time.Duration
	// LockTTL bounds how long an orphaned 2PL lock outlives its holder
	// before the lease lapses (default 2×CrossTimeout). In-doubt recovery
	// re-asserts leases for transactions it replays from the WAL, so
	// expiry only releases locks no one will resolve.
	LockTTL time.Duration
	// IntraShardLatency models each shard committee's internal link
	// latency (LAN-class); zero means instant in-process links.
	IntraShardLatency time.Duration
	// InterShardDelay models WAN latency for one message between two
	// shards; the reference chain (AHL) is addressed as shard id =
	// Shards. Nil means co-located shards.
	InterShardDelay func(a, b types.ShardID) time.Duration
}

// engine abstracts the per-node processing pipeline. process returns the
// per-transaction outcomes alongside the aggregate stats; statuses index
// by the transaction's position in txs even when the architecture
// reorders internally (XOV), so receipts can be settled per tx.
type engine interface {
	process(height uint64, txs []*types.Transaction) (arch.Stats, []arch.TxStatus)
	store() *statedb.Store
}

type oxEngine struct{ e *ox.Engine }

func (o oxEngine) process(h uint64, txs []*types.Transaction) (arch.Stats, []arch.TxStatus) {
	return o.e.ExecuteBlockStatus(types.NewBlock(h, types.ZeroHash, 0, txs))
}
func (o oxEngine) store() *statedb.Store { return o.e.Store() }

type oxiiEngine struct{ e *oxii.Engine }

func (o oxiiEngine) process(h uint64, txs []*types.Transaction) (arch.Stats, []arch.TxStatus) {
	return o.e.ExecuteBlockStatus(types.NewBlock(h, types.ZeroHash, 0, txs))
}
func (o oxiiEngine) store() *statedb.Store { return o.e.Store() }

type xovEngine struct{ e *xov.Engine }

func (o xovEngine) process(h uint64, txs []*types.Transaction) (arch.Stats, []arch.TxStatus) {
	return o.e.CommitBlockStatus(types.NewBlock(h, types.ZeroHash, 0, txs))
}
func (o xovEngine) store() *statedb.Store { return o.e.Store() }

// Node is one replica's full state: its consensus replica, ledger copy,
// world state, and processing engine.
type Node struct {
	ID      types.NodeID
	replica consensus.Replica
	chain   *ledger.Chain
	eng     engine
	disk    *store.Store // nil when the chain is not durable

	// The commit-pipeline stage channels, created by Start; persistCh is
	// nil when disk is.
	applyCh   chan applyItem
	persistCh chan persistItem
	cw        *commitWaiter // the chain's shared watermark hub

	mu    sync.Mutex
	stats arch.Stats
	txs   int
}

// Chain returns this node's copy of the ledger.
func (n *Node) Chain() *ledger.Chain { return n.chain }

// Disk returns this node's durable block store, or nil when the chain was
// built without Config.Store.
func (n *Node) Disk() *store.Store { return n.disk }

// Store returns this node's world state.
func (n *Node) Store() *statedb.Store { return n.eng.store() }

// Stats returns this node's processing totals.
func (n *Node) Stats() arch.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ProcessedTxs returns how many transactions this node has processed.
func (n *Node) ProcessedTxs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.txs
}

// DurableHeight returns the highest block height the commit pipeline has
// persisted to this node's durable store — the watermark crash recovery
// is guaranteed to reach. Zero when the chain was built without
// Config.Store.
func (n *Node) DurableHeight() uint64 { return n.cw.durableHeight(int(n.ID)) }

// Chain is a running permissioned blockchain.
type Chain struct {
	cfg   Config
	net   *network.Network
	nodes []*Node

	cw       *commitWaiter
	receipts *receiptTable
	// pool is the admission layer (nil without Config.Mempool). When
	// set, submissions route through it and batches are formed by the
	// mempool drain loop instead of the direct batch+flush path.
	pool *mempool.Pool

	mu      sync.Mutex
	batch   []*types.Transaction
	started bool

	// stopMu orders submissions against shutdown: Submit and Flush hold
	// the read side, Stop flips stopping under the write side before the
	// pipeline is torn down, so no proposal can reach a replica that is
	// about to stop.
	stopMu   sync.RWMutex
	stopping bool

	stopCh   chan struct{}
	killCh   chan struct{} // closed by Crash: abandon queued work un-synced
	stopOnce sync.Once
	killOnce sync.Once
	wg       sync.WaitGroup

	// testExecGate, when non-nil, makes every executor take one token per
	// block before applying it — the hook the backpressure test uses to
	// stall the pipeline and watch the apply queue fill up.
	testExecGate chan struct{}
}

// ErrWireModeMismatch reports a node configured for serialized
// (wire-codec) transport attached to a network in struct-pointer mode,
// or vice versa. The two modes cannot interoperate — a struct-pointer
// payload would reach a wire-mode peer undecodable — so construction
// fails fast instead of risking silent misdecode. Test with errors.Is.
var ErrWireModeMismatch = errors.New("core: wire-codec mode mismatch between Config.WireCodec and Config.Net")

// batchMsg is what consensus orders.
type batchMsg struct {
	Txs []*types.Transaction
}

// batchCodec (wire tag 160) carries ordered batch proposals across a
// wire-mode transport.
var batchCodec = wire.Register[batchMsg](160, putBatchMsg, getBatchMsg)

func putBatchMsg(e *wire.Encoder, m *batchMsg) {
	e.U32(uint32(len(m.Txs)))
	for _, tx := range m.Txs {
		tx := tx
		wire.PutTx(e, &tx)
	}
}

func getBatchMsg(d *wire.Decoder, m *batchMsg) {
	n := d.Count(32)
	m.Txs = m.Txs[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		var tx *types.Transaction
		wire.GetTx(d, &tx)
		m.Txs = append(m.Txs, tx)
	}
	if len(m.Txs) == 0 {
		m.Txs = nil
	}
}

func batchDigest(txs []*types.Transaction) types.Hash {
	parts := make([][]byte, 0, len(txs))
	for _, tx := range txs {
		h := tx.Hash()
		parts = append(parts, h[:])
	}
	return types.HashConcat(parts...)
}

// New assembles a chain. Call Start before submitting. When cfg.Store is
// set, the directory must hold no blocks yet — recovering existing durable
// state is OpenChain's job, and New refuses it rather than diverging the
// fresh in-memory ledger from what disk says is committed.
func New(cfg Config) (*Chain, error) { return build(cfg, false) }

// OpenChain assembles a chain that recovers from the durable state under
// cfg.Store.Dir: each node restores its newest usable state snapshot,
// loads every logged block into its ledger, and re-executes only the
// blocks after the snapshot. An empty directory yields a fresh chain, so
// OpenChain is also the idiomatic "open or create" entry point for
// durable deployments. Consensus replicas restart from a clean slate (a
// new view/term); the ledger keeps extending from the recovered height.
func OpenChain(cfg Config) (*Chain, error) {
	if cfg.Store == nil {
		return nil, errors.New("core: OpenChain requires Config.Store")
	}
	return build(cfg, true)
}

func build(cfg Config, resume bool) (*Chain, error) {
	if cfg.Sharding != nil {
		return nil, errors.New("core: Config.Sharding is set; build the deployment with the sharded constructors (permchain.NewShardedChain)")
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 64
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 20 * time.Millisecond
	}
	if cfg.ApplyQueue <= 0 {
		cfg.ApplyQueue = 64
	}
	if cfg.Net == nil {
		if cfg.WireCodec {
			cfg.Net = network.New(network.WithWireCodec())
		} else {
			cfg.Net = network.New()
		}
	} else if cfg.Net.WireEnabled() != cfg.WireCodec {
		return nil, fmt.Errorf("%w: Config.WireCodec=%v but the supplied network's wire mode is %v",
			ErrWireModeMismatch, cfg.WireCodec, cfg.Net.WireEnabled())
	}
	keys := crypto.NewKeyring(cfg.Nodes)
	ids := make([]types.NodeID, cfg.Nodes)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	if cfg.Obs != nil && cfg.Obs.Reg != nil {
		cfg.Net.SetRegistry(cfg.Obs.Reg)
	}
	if cfg.Obs != nil {
		// An Obs without a health tracker gets the default one, so any
		// instrumented chain can answer /healthz; callers that want custom
		// thresholds attach their own obs.NewHealth first.
		if cfg.Obs.Health == nil {
			cfg.Obs.Health = obs.NewHealth(obs.HealthConfig{})
		}
		cfg.Net.SetLogger(cfg.Obs.Logger("network"))
	}
	c := &Chain{
		cfg: cfg, net: cfg.Net,
		cw:       newCommitWaiter(cfg.Nodes),
		receipts: newReceiptTable(),
		stopCh:   make(chan struct{}),
		killCh:   make(chan struct{}),
	}
	if cfg.Mempool != nil {
		mcfg := *cfg.Mempool
		if mcfg.BatchSize <= 0 {
			mcfg.BatchSize = cfg.BlockSize
		}
		if mcfg.BatchDeadline <= 0 {
			mcfg.BatchDeadline = cfg.FlushEvery
		}
		if mcfg.Obs == nil {
			mcfg.Obs = cfg.Obs
		}
		c.pool = mempool.New(mcfg)
	}
	// Aggregate mode shares one Schnorr key set across the cluster rather
	// than letting each replica re-derive the deterministic set itself.
	var voteKeys *quorumcert.Keys
	if cfg.AggregateVotes && !cfg.DisableSig {
		voteKeys = quorumcert.NewKeys()
	}
	for i := range ids {
		ccfg := consensus.Config{
			Self: ids[i], Nodes: ids, Net: cfg.Net, Keys: keys,
			Timeout: cfg.Timeout, DisableSig: cfg.DisableSig,
			Obs:            cfg.Obs,
			AggregateVotes: cfg.AggregateVotes, VoteKeys: voteKeys,
			BatchVotes: cfg.BatchVotes,
		}
		var rep consensus.Replica
		switch cfg.Protocol {
		case PBFT:
			rep = pbft.New(ccfg)
		case Raft:
			rep = raft.New(ccfg)
		case Paxos:
			rep = paxos.New(ccfg)
		case Tendermint:
			rep = tendermint.New(tendermint.Config{Config: ccfg, Stakes: cfg.Stakes})
		case HotStuff:
			rep = hotstuff.New(ccfg)
		case IBFT:
			rep = ibft.New(ccfg)
		default:
			return nil, fmt.Errorf("core: unknown protocol %v", cfg.Protocol)
		}
		var st *statedb.Store
		if cfg.HistoryLimit > 0 {
			st = statedb.New(statedb.WithHistory(cfg.HistoryLimit))
		} else {
			st = statedb.New()
		}

		var disk *store.Store
		if cfg.Store != nil {
			scfg := *cfg.Store
			scfg.Dir = filepath.Join(cfg.Store.Dir, fmt.Sprintf("node-%d", i))
			if scfg.Obs == nil {
				scfg.Obs = cfg.Obs
			}
			ds, err := store.Open(scfg)
			if err != nil {
				c.closeDisks()
				return nil, fmt.Errorf("core: node %d store: %w", i, err)
			}
			if !resume && ds.Height() > 0 {
				ds.Close()
				c.closeDisks()
				return nil, fmt.Errorf("core: node %d store already holds %d blocks; use OpenChain to recover it", i, ds.Height())
			}
			disk = ds
		}

		var eng engine
		switch cfg.Arch {
		case OX:
			e := ox.New(st, cfg.WorkFactor)
			e.SetObs(cfg.Obs)
			eng = oxEngine{e}
		case OXII:
			e := oxii.New(st, cfg.WorkFactor, cfg.Workers)
			e.SetObs(cfg.Obs)
			eng = oxiiEngine{e}
		case XOV:
			e := xov.New(st, cfg.XOVOptions, cfg.WorkFactor, cfg.Workers)
			e.SetObs(cfg.Obs)
			eng = xovEngine{e}
		default:
			c.closeDisks()
			return nil, fmt.Errorf("core: unknown architecture %v", cfg.Arch)
		}

		n := &Node{ID: ids[i], replica: rep, chain: ledger.NewChain(), eng: eng, disk: disk, cw: c.cw}
		if resume && disk != nil && disk.Height() > 0 {
			if err := n.recoverFromDisk(st, cfg.Obs); err != nil {
				disk.Close()
				c.closeDisks()
				return nil, fmt.Errorf("core: node %d recovery: %w", i, err)
			}
		}
		c.nodes = append(c.nodes, n)
	}
	if resume {
		if err := c.catchUpNodes(); err != nil {
			c.closeDisks()
			return nil, err
		}
	}
	// Seed the watermarks with what recovery rebuilt, so Await(Height)
	// floors at or below the recovered height are already satisfied.
	// Replayed transactions stay out of the tx watermark, matching
	// ProcessedTxs.
	for i, n := range c.nodes {
		var dh uint64
		if n.disk != nil {
			dh = n.disk.Height()
		}
		c.cw.seed(i, n.chain.Height(), dh)
	}
	return c, nil
}

// catchUpNodes levels recovered nodes to the tallest verified ledger: a
// node that went down behind its peers recovers to a lower height, and
// without help its next block would fork the cluster. Because every
// node's store lives in this process, the missing suffix is replayed
// straight from the reference copy — the in-process analogue of the
// state transfer a distributed deployment would run.
func (c *Chain) catchUpNodes() error {
	var ref *Node
	for _, n := range c.nodes {
		if ref == nil || n.chain.Height() > ref.chain.Height() {
			ref = n
		}
	}
	if ref == nil || ref.chain.Height() == 0 {
		return nil
	}
	refBlocks := ref.chain.Blocks() // [0] is genesis; [h] is the block at height h
	for _, n := range c.nodes {
		h := n.chain.Height()
		if h == ref.chain.Height() {
			continue
		}
		// The shorter ledger must be a prefix of the reference one;
		// anything else is divergence, not lag.
		if n.chain.Head().Hash() != refBlocks[h].Hash() {
			return fmt.Errorf("%w: node %v ledger diverges from node %v at height %d",
				store.ErrCorrupt, n.ID, ref.ID, h)
		}
		for _, b := range refBlocks[h+1:] {
			n.eng.process(b.Header.Height, b.Txs)
			if err := n.chain.Append(b); err != nil {
				return fmt.Errorf("core: node %v catch-up: %w", n.ID, err)
			}
			if err := n.disk.AppendBlock(b); err != nil {
				return fmt.Errorf("core: node %v catch-up append: %w", n.ID, err)
			}
			c.cfg.Obs.Inc("store/catchup_blocks")
		}
	}
	return nil
}

// closeDisks releases any stores already opened by a failed build.
func (c *Chain) closeDisks() {
	for _, n := range c.nodes {
		if n.disk != nil {
			n.disk.Close()
		}
	}
}

// recoverFromDisk rebuilds this node's ledger and world state from its
// durable store: restore the newest usable snapshot into st, load every
// block into the in-memory chain (the hash-chain needs them all), and
// re-execute through the engine only the blocks the snapshot does not
// already cover. Replayed transactions do not count toward ProcessedTxs —
// they were counted in the incarnation that first processed them.
func (n *Node) recoverFromDisk(st *statedb.Store, o *obs.Obs) error {
	start := time.Now()
	var snapHeight uint64
	if ref, snap, ok, err := n.disk.LatestSnapshot(); err != nil {
		return err
	} else if ok {
		st.Restore(snap)
		if st.StateHash().Hex() != ref.StateHash {
			return fmt.Errorf("%w: snapshot at height %d restores to state %s, manifest says %s",
				store.ErrCorrupt, ref.Height, st.StateHash().Hex(), ref.StateHash)
		}
		snapHeight = ref.Height
	}
	blocks := make([]*types.Block, 0, n.disk.Height())
	if err := n.disk.ReplayBlocks(1, func(b *types.Block) error {
		blocks = append(blocks, b)
		return nil
	}); err != nil {
		return err
	}
	chain, err := ledger.NewChainFromBlocks(blocks)
	if err != nil {
		return err
	}
	if err := chain.Verify(); err != nil {
		return err
	}
	replayed := 0
	for _, b := range blocks {
		if b.Header.Height <= snapHeight {
			continue
		}
		n.eng.process(b.Header.Height, b.Txs)
		replayed++
	}
	n.chain = chain
	o.Add("store/loaded_blocks", int64(len(blocks)))
	o.Add("store/replayed_blocks", int64(replayed))
	o.Observe("store/recovery_duration", time.Since(start))
	return nil
}

// Start launches the replicas, the batching loop, and each node's commit
// pipeline (intake -> executor -> persister).
func (c *Chain) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	for _, n := range c.nodes {
		n.replica.Start()
	}
	for _, n := range c.nodes {
		// Both channels must exist before either stage goroutine starts:
		// the executor reads n.persistCh on its first block.
		n.applyCh = make(chan applyItem, c.cfg.ApplyQueue)
		if n.disk != nil {
			n.persistCh = make(chan persistItem, c.cfg.ApplyQueue)
		}
		c.wg.Add(1)
		go c.executor(n)
		if n.persistCh != nil {
			c.wg.Add(1)
			go c.persister(n)
		}
		c.wg.Add(1)
		go c.intake(n)
	}
	c.wg.Add(1)
	if c.pool != nil {
		go c.mempoolLoop()
	} else {
		go c.flushLoop()
	}
	c.registerHealthChecks()
}

// Stop shuts the chain down cleanly: the pipeline drains every decided
// batch it has already accepted, durable stores sync and close, and any
// receipt still unresolved fails with ErrStopped. Idempotent.
func (c *Chain) Stop() { c.shutdown(false) }

// Crash is the in-process stand-in for kill -9: queued-but-unapplied
// batches are abandoned, disks are dropped without a final sync (whatever
// the fsync policy already made durable is all recovery gets), and
// unresolved receipts fail with ErrStopped. The chain is unusable
// afterwards; reopen from the same directory with OpenChain.
func (c *Chain) Crash() { c.shutdown(true) }

func (c *Chain) shutdown(crash bool) {
	c.stopMu.Lock()
	c.stopping = true
	c.stopMu.Unlock()
	if crash {
		c.killOnce.Do(func() { close(c.killCh) })
	}
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
	for _, n := range c.nodes {
		n.replica.Stop()
	}
	if c.pool != nil {
		// Admission closes before the receipt sweep: anything still
		// pooled or inflight is orphaned below, exactly once.
		c.pool.Close()
	}
	c.receipts.failAll(ErrStopped, c.cfg.Obs)
	if crash {
		for _, n := range c.nodes {
			if n.disk != nil {
				n.disk.Kill()
			}
		}
		return
	}
	c.closeDisks()
}

// Metrics returns a point-in-time snapshot of the chain's metrics
// registry — counters, gauges, and histograms from every layer that
// shares Config.Obs. The zero Snapshot is returned when the chain was
// built without one.
func (c *Chain) Metrics() obs.Snapshot {
	if c.cfg.Obs == nil {
		return obs.Snapshot{}
	}
	return c.cfg.Obs.Reg.Snapshot()
}

// Nodes returns the chain's node handles.
func (c *Chain) Nodes() []*Node { return c.nodes }

// Node returns node i.
func (c *Chain) Node(i int) *Node { return c.nodes[i] }

// Network returns the chain's transport (for fault injection and stats).
func (c *Chain) Network() *network.Network { return c.net }

// ErrStopped is returned for submissions after Stop.
var ErrStopped = errors.New("core: chain stopped")

// Submit queues a transaction. Under XOV it is endorsed first (simulated
// against current state to produce its read/write sets); endorsement
// failures surface here, matching Fabric's client-visible behavior.
func (c *Chain) Submit(tx *types.Transaction) error {
	_, err := c.submit(tx, false)
	return err
}

// SubmitAsync queues a transaction and returns a Receipt that settles
// when its fate is known: Done closes once the transaction commits
// (durably, on a durable chain), is aborted by concurrency control, or is
// orphaned by Stop. Submission errors (endorsement failure, stopped
// chain) surface here, before a receipt exists.
func (c *Chain) SubmitAsync(tx *types.Transaction) (*Receipt, error) {
	return c.submit(tx, true)
}

func (c *Chain) submit(tx *types.Transaction, withReceipt bool) (*Receipt, error) {
	c.stopMu.RLock()
	if c.stopping {
		c.stopMu.RUnlock()
		return nil, ErrStopped
	}
	c.cfg.Obs.Mark(tx.Hash(), 0, obs.PhaseSubmit)
	if c.cfg.Arch == XOV {
		if e, ok := c.nodes[0].eng.(xovEngine); ok {
			if err := e.e.Endorse(tx); err != nil {
				c.stopMu.RUnlock()
				return nil, err
			}
		}
	}
	if c.pool != nil {
		// Admission-controlled path. The receipt registers inside the
		// admission decision, under the pool lock, so the commit path
		// can never settle the transaction before its receipt exists —
		// and a rejected transaction never issues one. A duplicate of a
		// pooled/inflight digest consumes no slot; its receipt attaches
		// to the pending commit (exactly-once handoff).
		var r *Receipt
		dup, err := c.pool.Admit(tx, func(bool) {
			if withReceipt {
				r = c.receipts.register(tx)
				c.cfg.Obs.Inc("core/receipts_issued")
			}
		})
		c.stopMu.RUnlock()
		if err != nil {
			if mempool.IsReject(err) {
				// Sheds land in the transport's per-cause loss
				// accounting so overload is distinguishable from
				// chaos-induced drops in the same snapshot.
				c.net.DropExternal(network.DropAdmission)
			}
			return nil, err
		}
		if !dup {
			// Duplicates attach to the pending commit and settle with it;
			// counting them would leave the health tracker's pending
			// estimate permanently above zero.
			c.cfg.Obs.NoteSubmit()
		}
		return r, nil
	}
	var r *Receipt
	if withReceipt {
		// Register before the batch can flush, so the commit path can
		// never settle the transaction between enqueue and registration.
		r = c.receipts.register(tx)
		c.cfg.Obs.Inc("core/receipts_issued")
	}
	c.cfg.Obs.NoteSubmit()
	c.mu.Lock()
	c.batch = append(c.batch, tx)
	full := len(c.batch) >= c.cfg.BlockSize
	c.mu.Unlock()
	c.stopMu.RUnlock()
	if full {
		c.Flush()
	}
	return r, nil
}

// Flush proposes any queued transactions immediately — on an
// admission-controlled chain it drains every pooled batch, partial
// last one included. Once the chain is stopping it is a no-op: the
// replicas may already be down, and proposing to a stopped replica was
// a shutdown race — queued transactions settle through the receipt
// table as stopped instead.
func (c *Chain) Flush() {
	if c.pool != nil {
		c.proposePooled(true)
		return
	}
	c.stopMu.RLock()
	defer c.stopMu.RUnlock()
	if c.stopping {
		return
	}
	c.mu.Lock()
	if len(c.batch) == 0 {
		c.mu.Unlock()
		return
	}
	txs := c.batch
	c.batch = nil
	c.mu.Unlock()
	c.nodes[0].replica.Submit(batchMsg{Txs: txs}, batchDigest(txs))
}

func (c *Chain) flushLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.FlushEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.Flush()
		}
	}
}

// VerifyReplication checks the Figure 1 invariant: every node's ledger is
// internally consistent and identical to every other node's, and all
// world states agree.
func (c *Chain) VerifyReplication() error {
	ref := c.nodes[0]
	if err := ref.chain.Verify(); err != nil {
		return fmt.Errorf("node %v: %w", ref.ID, err)
	}
	refState := ref.Store().StateHash()
	for _, n := range c.nodes[1:] {
		if err := n.chain.Verify(); err != nil {
			return fmt.Errorf("node %v: %w", n.ID, err)
		}
		if !ref.chain.EqualTo(n.chain) {
			return fmt.Errorf("core: node %v ledger differs from node %v", n.ID, ref.ID)
		}
		if n.Store().StateHash() != refState {
			return fmt.Errorf("core: node %v state differs from node %v", n.ID, ref.ID)
		}
	}
	return nil
}
