package chaos

import (
	"fmt"
	"regexp"
	"runtime"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/core"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/store"
	"permchain/internal/types"
)

// lifecycle is what TestLifecycle drives: a replica cluster or a chain.
type lifecycle interface {
	Start()
	Stop()
}

// cluster starts and stops a bare replica group together.
type cluster []consensus.Replica

func (c cluster) Start() {
	for _, r := range c {
		r.Start()
	}
}

func (c cluster) Stop() {
	for _, r := range c {
		r.Stop()
	}
}

// startedLoops matches the goroutines a Start method launched: replica
// event loops and a chain's pipeline stages.
var startedLoops = regexp.MustCompile(`created by permchain/internal/\S+\.Start in goroutine`)

func countStartedLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return len(startedLoops.FindAll(buf[:n], -1))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// within fails the test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// durableChain commits two blocks to a fresh 4-node PBFT/OX chain with an
// fsynced store under t.TempDir, stops it and returns the config that
// reopens it.
func durableChain(t *testing.T) core.Config {
	t.Helper()
	cfg := core.Config{Nodes: 4, Protocol: core.PBFT, Arch: core.OX, BlockSize: 4,
		FlushEvery: time.Hour, Timeout: 400 * time.Millisecond,
		Store: &store.Config{Dir: t.TempDir(), Fsync: store.FsyncAlways}}
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for h := 1; h <= 2; h++ {
		for i := 0; i < 4; i++ {
			if err := c.Submit(incTx(fmt.Sprintf("t%d-%d", h, i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Flush()
		if !c.Await(core.AwaitSpec{DurableHeight: uint64(h), Timeout: 20 * time.Second}) {
			t.Fatalf("block %d never became durable on every node", h)
		}
	}
	c.Stop()
	return cfg
}

// incTx adds 1 to key k.
func incTx(id string) *types.Transaction {
	return &types.Transaction{ID: id, Ops: []types.Op{{Code: types.OpAdd, Key: "k", Delta: 1}}}
}

// settleLoops waits for the loop count to fall back to base.
func settleLoops(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := countStartedLoops() - base
		if n <= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d started loops still running", what, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLifecycle drives every replica type and both chain constructors
// through each lifecycle edge: Stop before Start, Start twice, Stop twice,
// Submit after Stop and Start after Stop.
func TestLifecycle(t *testing.T) {
	type row struct {
		name  string
		build func(t *testing.T) (lifecycle, func())
	}
	var rows []row
	for _, p := range Protocols() {
		rows = append(rows, row{p.Name, func(t *testing.T) (lifecycle, func()) {
			net := network.New()
			t.Cleanup(net.Close)
			keys := crypto.NewKeyring(p.MinN)
			nodes := make([]types.NodeID, p.MinN)
			for i := range nodes {
				nodes[i] = types.NodeID(i)
			}
			c := make(cluster, p.MinN)
			for i := range c {
				c[i] = p.New(consensus.Config{Self: nodes[i], Nodes: nodes, Net: net, Keys: keys})
			}
			submit := func() { c[0].Submit("late", types.HashBytes([]byte("late"))) }
			return c, submit
		}})
	}
	chainRow := func(name string, open func(core.Config) (*core.Chain, error), cfg func(t *testing.T) core.Config) row {
		return row{name, func(t *testing.T) (lifecycle, func()) {
			c, err := open(cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			return c, func() { _ = c.Submit(incTx("late")) }
		}}
	}
	rows = append(rows,
		chainRow("core.New", core.New, func(*testing.T) core.Config {
			return core.Config{Nodes: 4, Protocol: core.PBFT, Arch: core.OX}
		}),
		chainRow("core.OpenChain", core.OpenChain, durableChain),
	)

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			base := countStartedLoops()

			// Never started: Stop returns at once and nothing can start.
			lc, submit := tc.build(t)
			within(t, time.Second, "Stop before Start", lc.Stop)
			within(t, time.Second, "second Stop", lc.Stop)
			within(t, time.Second, "Submit after Stop", submit)
			lc.Start()
			if n := countStartedLoops() - base; n > 0 {
				t.Fatalf("Start after Stop launched %d loops", n)
			}

			// Started twice: one set of loops, and Stop from running.
			lc, submit = tc.build(t)
			lc.Start()
			once := countStartedLoops()
			if once <= base {
				t.Fatal("Start launched no loops")
			}
			lc.Start()
			if n := countStartedLoops() - once; n > 0 {
				t.Fatalf("second Start launched %d more loops", n)
			}
			within(t, 5*time.Second, "Stop after Start", lc.Stop)
			within(t, time.Second, "second Stop", lc.Stop)
			within(t, time.Second, "Submit after Stop", submit)
			settleLoops(t, base, "after Stop")
			lc.Start()
			if n := countStartedLoops() - base; n > 0 {
				t.Fatalf("Start after Stop launched %d loops", n)
			}
		})
	}
}
