package core

import (
	"fmt"
	"time"

	"permchain/internal/arch"
	"permchain/internal/obs"
	"permchain/internal/statedb"
	"permchain/internal/types"
)

// The commit pipeline splits the old single-loop drainNode into three
// stages per node, connected by bounded channels:
//
//	consensus decisions -> intake -> applyCh -> executor -> persistCh -> persister
//
// intake only classifies and enqueues, so the consensus decision stream
// for height h+1 is never serialized behind execution of height h. The
// executor runs the CPU-bound part (execute against world state, append
// to the in-memory ledger) and captures point-in-time state checkpoints;
// the persister runs the IO-bound part (durable append under the fsync
// policy, handing checkpoints to the store's async snapshot writer). A
// block's execution therefore overlaps the previous block's fsync, and
// checkpoint serialization leaves the commit path entirely.
//
// Shutdown semantics: Stop closes stopCh; intake exits and closes
// applyCh, the executor drains what was already accepted and closes
// persistCh, the persister drains, so nothing decided-and-queued is lost
// on a clean stop. Crash closes killCh as well: every stage abandons its
// queue immediately, modeling a process kill.

// applyItem is one decided batch waiting for the executor.
type applyItem struct {
	seq uint64
	txs []*types.Transaction
}

// persistItem is one applied block waiting for the persister, together
// with the per-tx outcomes (to settle receipts once durable) and, when a
// checkpoint came due at this height, the copy-on-write state capture to
// materialize and write.
type persistItem struct {
	blk      *types.Block
	statuses []arch.TxStatus
	snapCap  *statedb.Capture
	hash     types.Hash
}

// intake is the decision-intake stage: it turns each consensus decision
// into an apply-queue item and returns to the decision channel as fast
// as possible. The queue is bounded (Config.ApplyQueue); when the
// executor falls behind, intake blocks here and backpressure reaches the
// decision channel instead of unbounded memory.
func (c *Chain) intake(n *Node) {
	defer c.wg.Done()
	defer close(n.applyCh)
	decs := n.replica.Decisions()
	for {
		select {
		case <-c.stopCh:
			return
		case d := <-decs:
			b, ok := d.Value.(batchMsg)
			if !ok {
				continue
			}
			select {
			case n.applyCh <- applyItem{seq: d.Seq, txs: b.Txs}:
				c.cfg.Obs.AddGauge("core/apply_queue_depth", 1)
				// The histogram's Max is the queue's high-water mark —
				// the bounded-depth witness E14 asserts on.
				c.cfg.Obs.ObserveInt("core/apply_queue_len", int64(len(n.applyCh)))
			case <-c.stopCh:
				return
			}
		}
	}
}

// executor drains this node's apply queue: execute the batch, append the
// block to the in-memory ledger, capture a state checkpoint when one is
// due, and hand the block to the persister. Execution of height h+1
// starts as soon as h is applied — it overlaps h's durable append.
func (c *Chain) executor(n *Node) {
	defer c.wg.Done()
	if n.persistCh != nil {
		defer close(n.persistCh)
	}
	for {
		select {
		case <-c.killCh:
			return
		case item, ok := <-n.applyCh:
			if !ok {
				return
			}
			c.cfg.Obs.AddGauge("core/apply_queue_depth", -1)
			if gate := c.testExecGate; gate != nil {
				select {
				case <-gate:
				case <-c.killCh:
					return
				}
			}
			it := c.applyDecision(n, item.seq, item.txs)
			if n.persistCh == nil {
				continue
			}
			select {
			case n.persistCh <- it:
			case <-c.killCh:
				return
			}
		}
	}
}

// persister drains the executor's output: durable-append each block under
// the store's fsync policy and kick off any due checkpoint. This is the
// only stage that touches disk on the commit path.
func (c *Chain) persister(n *Node) {
	defer c.wg.Done()
	for {
		select {
		case <-c.killCh:
			return
		case it, ok := <-n.persistCh:
			if !ok {
				return
			}
			c.persistBlock(n, it)
		}
	}
}

// applyDecision forms and applies the block for one decided batch: the
// execute + in-memory-append half of the commit path, run by the
// executor stage. It advances the node's applied
// watermark and, on non-durable chains, settles receipts (there is no
// later stage to wait for).
func (c *Chain) applyDecision(n *Node, seq uint64, txs []*types.Transaction) persistItem {
	head := n.chain.Head()
	height := head.Header.Height + 1
	t0 := time.Now()
	st, statuses := n.eng.process(height, txs)
	c.cfg.Obs.Observe("core/execute", time.Since(t0))
	// The proposer field must be identical on every node for the
	// ledgers to match; derive it from the decided slot.
	proposer := types.NodeID(int(seq % uint64(len(c.nodes))))
	blk := types.NewBlock(height, head.Hash(), proposer, txs)
	t1 := time.Now()
	if err := n.chain.Append(blk); err != nil {
		// A node that cannot extend its own chain is a bug.
		panic(fmt.Sprintf("core: node %v append: %v", n.ID, err))
	}
	c.cfg.Obs.Observe("core/append", time.Since(t1))
	if n.disk != nil && n.disk.SnapshotInFlight() {
		// Witness that checkpointing left the critical path: the
		// executor applied this block while a snapshot write was still
		// in flight.
		c.cfg.Obs.Inc("core/applied_during_snapshot")
	}
	it := persistItem{blk: blk, statuses: statuses}
	if n.disk != nil {
		if se := c.cfg.Store.SnapshotEvery; se > 0 && height%se == 0 {
			// The capture must happen here, between executing h and h+1: a
			// copy-on-write freeze the persister can materialize while the
			// executor keeps mutating live state. Only the freeze (brief
			// per-shard lock) and the incremental state hash (dirty buckets
			// only) stay on the executor's path; the O(n) snapshot copy
			// moves to the persister.
			stdb := n.Store()
			it.snapCap = stdb.Capture()
			it.hash = stdb.StateHash()
		}
	}
	// Node 0 stamps the end of each transaction's lifecycle; one node
	// suffices since the span tracer is cluster-wide and
	// earliest-mark-wins would otherwise record the fastest replica.
	if n.ID == 0 {
		c.cfg.Obs.NoteCommit(height, len(txs))
		c.cfg.Obs.Add("core/committed_txs", int64(len(txs)))
		for _, tx := range txs {
			c.cfg.Obs.MarkLatency("core/submit_to_apply", tx.Hash(), seq, obs.PhaseSubmit, obs.PhaseApply)
		}
	}
	n.mu.Lock()
	n.stats.Add(st)
	n.txs += len(txs)
	n.mu.Unlock()
	c.cw.advanceApplied(int(n.ID), len(txs), height)
	if n.disk == nil && n.ID == 0 {
		c.settleBlock(blk, statuses)
	}
	return it
}

// settleBlock is the node-0 commit notification: release the block's
// digests from the admission pool (re-opening capacity and advancing
// the drain-rate estimate), then resolve its receipts. Release runs
// first so a resubmission racing the commit either attaches to the
// still-pending entry — and is resolved right here — or finds the
// entry gone and is admitted as a fresh transaction; it can never
// register a receipt that no commit will settle.
func (c *Chain) settleBlock(blk *types.Block, statuses []arch.TxStatus) {
	if c.pool != nil {
		c.pool.Release(blk.Txs)
	}
	c.receipts.resolveBlock(blk, statuses, c.cfg.Obs)
}

// persistBlock is the durable half of the commit path, run by the
// persister stage: append the block to the node's store, hand any due
// checkpoint to the async snapshot writer, advance the durable
// watermark, and settle receipts — a receipt on a durable chain only
// fires once its block would survive a crash.
func (c *Chain) persistBlock(n *Node, it persistItem) {
	t0 := time.Now()
	if err := n.disk.AppendBlock(it.blk); err != nil {
		panic(fmt.Sprintf("core: node %v durable append: %v", n.ID, err))
	}
	c.cfg.Obs.Observe("core/fsync", time.Since(t0))
	if it.snapCap != nil {
		snap := it.snapCap.Materialize()
		n.disk.WriteSnapshotAsync(it.blk.Header.Height, snap, it.hash)
	}
	c.cw.advanceDurable(int(n.ID), it.blk.Header.Height)
	if n.ID == 0 {
		c.settleBlock(it.blk, it.statuses)
	}
}
