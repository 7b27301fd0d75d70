package caper

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/consensus/pbft"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/types"
)

// group is one PBFT replica group acting as a single crash-proof
// orderer: an enterprise's own cluster, or the global group that orders
// cross-enterprise transactions. Values are submitted at replica 0 and
// one goroutine drains replica 0's decisions, waking per-digest waiters
// and, for the global group, handing every decision to onDecide.
type group struct {
	replicas []*pbft.Replica
	onDecide func(consensus.Decision) // nil for enterprise clusters

	mu      sync.Mutex
	waiters map[types.Hash][]chan struct{}
	ordered int

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// newGroup starts one replica per node id on the shared network; the
// keyring gains a key for each.
func newGroup(nodes []types.NodeID, net *network.Network, keys *crypto.Keyring, cc consensus.Config, onDecide func(consensus.Decision)) *group {
	g := &group{
		onDecide: onDecide,
		waiters:  map[types.Hash][]chan struct{}{},
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, id := range nodes {
		keys.Add(id)
	}
	cc.Nodes, cc.Net, cc.Keys = nodes, net, keys
	for _, id := range nodes {
		rc := cc
		rc.Self = id
		r := pbft.New(rc)
		r.Start()
		g.replicas = append(g.replicas, r)
	}
	go g.drain()
	return g
}

func (g *group) drain() {
	defer close(g.done)
	decs := g.replicas[0].Decisions()
	for {
		select {
		case <-g.stopCh:
			return
		case d := <-decs:
			g.mu.Lock()
			g.ordered++
			ws := g.waiters[d.Digest]
			delete(g.waiters, d.Digest)
			g.mu.Unlock()
			for _, w := range ws {
				w <- struct{}{}
			}
			if g.onDecide != nil {
				g.onDecide(d)
			}
		}
	}
}

// submit hands a value to the group without waiting for its decision.
func (g *group) submit(value any, digest types.Hash) {
	g.replicas[0].Submit(value, digest)
}

// orderSync submits a value and blocks until the group decides it or
// the timeout elapses.
func (g *group) orderSync(value any, digest types.Hash, timeout time.Duration) error {
	ch := make(chan struct{}, 1)
	g.mu.Lock()
	g.waiters[digest] = append(g.waiters[digest], ch)
	g.mu.Unlock()
	g.submit(value, digest)
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("caper: ordering %v timed out", digest)
	case <-g.stopCh:
		return errors.New("caper: network closed")
	}
}

// orderedCount returns how many values the group has decided.
func (g *group) orderedCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ordered
}

// stop shuts the group down and waits for its drain goroutine.
// Idempotent.
func (g *group) stop() {
	g.stopOnce.Do(func() {
		close(g.stopCh)
		for _, r := range g.replicas {
			r.Stop()
		}
	})
	<-g.done
}
