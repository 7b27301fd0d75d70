package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"permchain/internal/arch"
	"permchain/internal/obs"
	storepkg "permchain/internal/store"
)

func TestReceiptSettlesCommitted(t *testing.T) {
	c := newChain(t, Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 4, Obs: obs.New()})
	const k = 8
	receipts := make([]*Receipt, 0, k)
	for i := 0; i < k; i++ {
		r, err := c.SubmitAsync(addTx(fmt.Sprintf("r%d", i), "k", 1))
		if err != nil {
			t.Fatal(err)
		}
		receipts = append(receipts, r)
	}
	c.Flush()
	for i, r := range receipts {
		if err := r.Wait(20 * time.Second); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
		if r.Status() != arch.TxCommitted {
			t.Fatalf("receipt %d status %v", i, r.Status())
		}
		if r.Height() == 0 {
			t.Fatalf("receipt %d has no height", i)
		}
	}
	m := c.Metrics()
	if m.Counters["core/receipts_issued"] != k || m.Counters["core/receipts_resolved"] != k {
		t.Fatalf("issued %d resolved %d, want %d each",
			m.Counters["core/receipts_issued"], m.Counters["core/receipts_resolved"], k)
	}
}

func TestReceiptDurableSettlesAfterPersist(t *testing.T) {
	// On a durable chain a receipt only fires after the block's durable
	// append, so its height is at or below node 0's durable watermark.
	scfg := &storepkg.Config{Dir: t.TempDir(), Fsync: storepkg.FsyncAlways}
	c := newChain(t, Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 2, Store: scfg})
	r, err := c.SubmitAsync(addTx("d0", "k", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitAsync(addTx("d1", "k", 1)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if err := r.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).DurableHeight(); got < r.Height() {
		t.Fatalf("durable watermark %d below receipt height %d", got, r.Height())
	}
	if !c.Await(AwaitSpec{Nodes: []int{0}, DurableHeight: r.Height(), Timeout: time.Second}) {
		t.Fatal("Await on the durable floor did not see the persisted block")
	}
}

func TestXOVAbortedReceiptsSettleNotHang(t *testing.T) {
	// Every transaction endorses against the same snapshot of one hot
	// key; MVCC validation commits the first and aborts the rest. The
	// losers' receipts must settle with TxAborted — not hang, not error.
	c := newChain(t, Config{Nodes: 4, Arch: XOV, BlockSize: 16, Obs: obs.New()})
	const k = 8
	receipts := make([]*Receipt, 0, k)
	for i := 0; i < k; i++ {
		r, err := c.SubmitAsync(addTx(fmt.Sprintf("hot%d", i), "hot", 1))
		if err != nil {
			t.Fatal(err)
		}
		receipts = append(receipts, r)
	}
	c.Flush()
	committed, aborted := 0, 0
	for i, r := range receipts {
		if err := r.Wait(20 * time.Second); err != nil {
			t.Fatalf("receipt %d: %v", i, err)
		}
		switch r.Status() {
		case arch.TxCommitted:
			committed++
		case arch.TxAborted:
			aborted++
		default:
			t.Fatalf("receipt %d unexpected status %v", i, r.Status())
		}
	}
	if committed != 1 || aborted != k-1 {
		t.Fatalf("committed %d aborted %d, want 1 and %d", committed, aborted, k-1)
	}
	if got := c.Metrics().Counters["core/receipts_aborted"]; got != int64(k-1) {
		t.Fatalf("receipts_aborted = %d, want %d", got, k-1)
	}
}

func TestStopFailsPendingReceipts(t *testing.T) {
	// A receipt whose transaction never reached consensus settles with
	// ErrStopped at shutdown instead of hanging its waiter.
	cfg := Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 1024,
		FlushEvery: time.Hour, Timeout: 400 * time.Millisecond}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	r, err := c.SubmitAsync(addTx("orphan", "k", 1))
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	select {
	case <-r.Done():
	default:
		t.Fatal("receipt still pending after Stop")
	}
	if !errors.Is(r.Err(), ErrStopped) {
		t.Fatalf("receipt error %v, want ErrStopped", r.Err())
	}
}

func TestSubmitDuringStopIsSafe(t *testing.T) {
	// Submissions racing Stop either land or return ErrStopped; nothing
	// panics and no proposal reaches a stopped replica. Run with -race.
	c, err := New(Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 2,
		Timeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var wg sync.WaitGroup
	stopErr := make(chan error, 4)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				err := c.Submit(addTx(fmt.Sprintf("g%d-%d", g, i), "k", 1))
				if err != nil {
					stopErr <- err
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	c.Stop()
	wg.Wait()
	close(stopErr)
	for err := range stopErr {
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("racing submit returned %v, want ErrStopped", err)
		}
	}
	// Flush after Stop must be a no-op, not a proposal to dead replicas.
	c.Flush()
}

func TestApplyQueueBoundsMemoryUnderStall(t *testing.T) {
	// Stall every executor and keep proposing: intake may buffer at most
	// ApplyQueue decided batches per node before it blocks, so the
	// aggregate queue-depth gauge is bounded by Nodes*ApplyQueue no
	// matter how many blocks consensus decides.
	const nodes, queue, blocks = 4, 4, 48
	o := obs.New()
	cfg := Config{Nodes: nodes, Protocol: PBFT, Arch: OX, BlockSize: 1,
		ApplyQueue: queue, Timeout: 400 * time.Millisecond, Obs: o}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	c.testExecGate = gate
	c.Start()
	defer c.Stop()
	for i := 0; i < blocks; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("s%d", i), "k", 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Give intake time to fill the queues, then check the bound held.
	deadline := time.Now().Add(2 * time.Second)
	var peak int64
	for time.Now().Before(deadline) {
		depth := o.Reg.Snapshot().Gauges["core/apply_queue_depth"]
		if depth > peak {
			peak = depth
		}
		if depth > int64(nodes*queue) {
			t.Fatalf("apply queue depth %d exceeds bound %d", depth, nodes*queue)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if peak == 0 {
		t.Fatal("queues never filled; the stall gate is not wired")
	}
	close(gate)
	if !c.Await(AwaitSpec{Txs: blocks, Timeout: 30 * time.Second}) {
		t.Fatalf("processed %d/%d after releasing the stall", c.Node(0).ProcessedTxs(), blocks)
	}
	if err := c.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
}

func TestAwaitSpecFloors(t *testing.T) {
	c := newChain(t, Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 4})
	const k = 8
	for i := 0; i < k; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("a%d", i), "k", 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Height: 2, Timeout: 20 * time.Second}) {
		t.Fatalf("all-nodes await failed at %d txs", c.Node(0).ProcessedTxs())
	}
	if !c.Await(AwaitSpec{Nodes: []int{1, 3}, Txs: k, Timeout: time.Second}) {
		t.Fatal("subset await failed after the all-nodes one passed")
	}
	// A satisfied spec with no timeout returns immediately; an
	// unsatisfiable one reports false instead of blocking.
	if !c.Await(AwaitSpec{Txs: k}) {
		t.Fatal("zero-timeout check of a satisfied spec returned false")
	}
	if c.Await(AwaitSpec{Txs: k + 1000, Timeout: 50 * time.Millisecond}) {
		t.Fatal("await of unreachable floor returned true")
	}
}
