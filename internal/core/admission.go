package core

import (
	"time"

	"permchain/internal/mempool"
)

// The admission-controlled submit path (Config.Mempool):
//
//	clients -> pool.Admit -> [bounded pool] -> mempoolLoop -> consensus
//
// Admission sheds overload at the front door with typed errors and
// retry-after hints; the drain loop below forms batches by size (the
// pool's Ready signal) or time (the deadline ticker) and hands them to
// node 0's replica, feeding the same intake stage the direct path
// uses. Commits call pool.Release via settleBlock, which re-opens
// capacity — so the pool's occupancy is the end-to-end backpressure
// signal: a slow commit pipeline keeps occupancy high and admission
// sheds harder, instead of letting queues and latency grow without
// bound.

// Mempool returns the chain's admission pool, or nil when the chain
// was built without Config.Mempool.
func (c *Chain) Mempool() *mempool.Pool { return c.pool }

// mempoolLoop is the batch-formation driver: it wakes when a full
// batch is pooled (Ready) or a deadline passes (partial batches must
// not wait forever), and proposes what is there.
func (c *Chain) mempoolLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.pool.Config().BatchDeadline)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.pool.Ready():
			c.proposePooled(false)
		case <-t.C:
			c.proposePooled(false)
		}
	}
}

// proposePooled forms batches from the pool and hands them to
// consensus. With drain=false it proposes full batches while they
// remain, then proposes the trailing partial batch immediately (it does
// not wait for its deadline) and returns; Flush passes drain=true to
// empty the pool. Proposing stops once the chain is stopping — whatever
// was popped but not proposed settles through the receipt table as
// stopped, like every other in-flight orphan.
func (c *Chain) proposePooled(drain bool) {
	for {
		c.stopMu.RLock()
		if c.stopping {
			c.stopMu.RUnlock()
			return
		}
		batch := c.pool.NextBatch(c.cfg.BlockSize)
		if len(batch) == 0 {
			c.stopMu.RUnlock()
			return
		}
		c.nodes[0].replica.Submit(batchMsg{Txs: batch}, batchDigest(batch))
		c.stopMu.RUnlock()
		if !drain && len(batch) < c.cfg.BlockSize {
			return
		}
	}
}
