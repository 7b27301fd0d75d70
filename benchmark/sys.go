package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"permchain/internal/arch"
	"permchain/internal/core"
	"permchain/internal/network"
	"permchain/internal/sharding"
	"permchain/internal/sharding/shardcore"
	"permchain/internal/types"
)

// system is the deployment under test: one chain, or a sharded fleet of
// them. Everything the benchmark reads goes through the chains' public
// methods.
type system struct {
	cfg core.Config

	single  *core.Chain
	sharded *shardcore.Chain

	// Sharded receipts expose only Done(), so a fixed set of waiter
	// goroutines collects them; single-chain receipts use OnSettle and
	// need none.
	waitCh chan waitItem
	waitWG sync.WaitGroup

	mu    sync.Mutex
	acked []uint64 // highest receipt height acknowledged, per chain
}

type waitItem struct {
	r       *shardcore.Receipt
	settled func(outcome)
}

// maxWaiters bounds the goroutines collecting sharded receipts.
const maxWaiters = 256

func newSystem(cfg core.Config) (*system, error) {
	s := &system{cfg: cfg}
	if err := s.build(false); err != nil {
		return nil, err
	}
	s.acked = make([]uint64, len(s.chains()))
	if s.sharded != nil {
		// Sized to what two shards' mempools can hold outstanding, so the
		// generator does not block behind busy waiters.
		s.waitCh = make(chan waitItem, 2*mempoolCap)
		for i := 0; i < maxWaiters; i++ {
			s.waitWG.Add(1)
			go s.waiter()
		}
	}
	return s, nil
}

func (s *system) build(reopen bool) error {
	var err error
	if s.cfg.Sharding != nil {
		if reopen {
			s.sharded, err = sharding.OpenChain(s.cfg) // starts itself
		} else if s.sharded, err = sharding.NewChain(s.cfg); err == nil {
			s.sharded.Start()
		}
		return err
	}
	if reopen {
		s.single, err = core.OpenChain(s.cfg)
	} else {
		s.single, err = core.New(s.cfg)
	}
	if err == nil {
		s.single.Start()
	}
	return err
}

func (s *system) waiter() {
	defer s.waitWG.Done()
	for it := range s.waitCh {
		<-it.r.Done()
		var o outcome
		switch it.r.Status() {
		case shardcore.Committed:
			o = outCommitted
			s.mu.Lock()
			for sh, h := range it.r.Heights() {
				s.acked[sh] = max(s.acked[sh], h)
			}
			s.mu.Unlock()
		case shardcore.Aborted:
			o = outAborted
		default:
			o = outFailed
		}
		it.settled(o)
	}
}

// submit is the system's submitFn.
func (s *system) submit(tx *types.Transaction, settled func(outcome)) error {
	if s.sharded != nil {
		r, err := s.sharded.SubmitAsync(tx)
		if err != nil {
			return err
		}
		s.waitCh <- waitItem{r, settled}
		return nil
	}
	r, err := s.single.SubmitAsync(tx)
	if err != nil {
		return err
	}
	r.OnSettle(func(r *core.Receipt) {
		switch {
		case r.Err() != nil || r.Status() == arch.TxFailed:
			settled(outFailed)
		case r.Status() == arch.TxAborted:
			settled(outAborted)
		default:
			s.mu.Lock()
			s.acked[0] = max(s.acked[0], r.Height())
			s.mu.Unlock()
			settled(outCommitted)
		}
	})
	return nil
}

// chains returns every chain of the deployment.
func (s *system) chains() []*core.Chain {
	if s.sharded == nil {
		return []*core.Chain{s.single}
	}
	out := make([]*core.Chain, s.sharded.NumShards())
	for i := range out {
		out[i] = s.sharded.Shard(types.ShardID(i))
	}
	return out
}

// close stops the chains and the receipt waiters.
func (s *system) close() {
	if s.sharded != nil {
		s.sharded.Stop()
	} else {
		s.single.Stop()
	}
	if s.waitCh != nil {
		close(s.waitCh)
		s.waitWG.Wait()
	}
}

// crashAndReopen is kill -9 followed by recovery from the same directory.
func (s *system) crashAndReopen() error {
	if s.sharded != nil {
		s.sharded.Crash()
	} else {
		s.single.Crash()
	}
	return s.build(true)
}

// netTotals sums the transports' counters over every chain.
type netTotals struct{ sent, wireBytes, drops int64 }

func (s *system) netTotals() netTotals {
	var t netTotals
	for _, c := range s.chains() {
		st := c.Network().StatsSnapshot()
		t.sent += st.Sent
		t.wireBytes += st.WireBytesOut
		t.drops += st.Dropped - st.ByCause[network.DropAdmission]
	}
	return t
}

// poolTotals folds every chain's mempool accounting.
func (s *system) poolTotals() (maxOccupancy int, rejected int64) {
	for _, c := range s.chains() {
		st := c.Mempool().Stats()
		maxOccupancy = max(maxOccupancy, st.MaxOccupancy)
		rejected += st.RejectedFull + st.RejectedQuota
	}
	return maxOccupancy, rejected
}

// diskBytes is the size of every node's store directory, with pending
// snapshot writes flushed first so the figure does not depend on where
// the async writer happens to be.
func (s *system) diskBytes() (int64, error) {
	for _, c := range s.chains() {
		for _, n := range c.Nodes() {
			if err := n.Disk().DrainSnapshots(); err != nil {
				return 0, err
			}
		}
	}
	var total int64
	err := filepath.WalkDir(s.cfg.Store.Dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// quiesce waits until every node of every chain has applied and persisted
// what node 0 has, so replication can be compared.
func (s *system) quiesce() error {
	for i, c := range s.chains() {
		h := c.Node(0).Chain().Height()
		if !c.Await(core.AwaitSpec{Height: h, DurableHeight: h, Timeout: settleWait}) {
			return fmt.Errorf("chain %d: replicas did not reach height %d within %v", i, h, settleWait)
		}
	}
	return nil
}

// verify runs the deployment's own safety audits plus the counter sum:
// the sum of every counter must equal what the committed transactions
// added (zero for the sharded -1/+1 transfers).
func (s *system) verify(wantSum int64, g *generator) error {
	if err := s.quiesce(); err != nil {
		return err
	}
	var sum int64
	for i, c := range s.chains() {
		if err := c.VerifyReplication(); err != nil {
			return fmt.Errorf("chain %d: %w", i, err)
		}
		st := c.Node(0).Store()
		for _, k := range g.addKeys[i] {
			sum += st.GetInt(k)
		}
	}
	if sum != wantSum {
		return fmt.Errorf("counters sum to %d, committed transactions added %d", sum, wantSum)
	}
	if s.sharded != nil {
		if err := s.sharded.VerifyCrossShardAtomicity(); err != nil {
			return err
		}
		if n := s.sharded.LockCount(); n != 0 {
			return fmt.Errorf("%d locks leaked", n)
		}
	}
	return nil
}

// checkRecovered compares each chain's recovered height with the highest
// height a receipt acknowledged before the crash.
func (s *system) checkRecovered() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.chains() {
		if h := c.Node(0).Chain().Height(); h < s.acked[i] {
			return fmt.Errorf("chain %d recovered to height %d, below acknowledged height %d", i, h, s.acked[i])
		}
	}
	return nil
}

// submitAndWait sends one transaction and waits for it to commit.
func (s *system) submitAndWait(tx *types.Transaction) error {
	done := make(chan outcome, 1)
	if err := s.submit(tx, func(o outcome) { done <- o }); err != nil {
		return err
	}
	select {
	case o := <-done:
		if o != outCommitted {
			return fmt.Errorf("transaction %s settled with outcome %d", tx.ID, o)
		}
		return nil
	case <-time.After(settleWait):
		return fmt.Errorf("transaction %s did not settle within %v", tx.ID, settleWait)
	}
}
