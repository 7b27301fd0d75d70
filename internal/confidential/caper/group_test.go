package caper

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/types"
)

func testGroup(t *testing.T, net *network.Network, base types.NodeID, timeout time.Duration, onDecide func(consensus.Decision)) (*group, []types.NodeID) {
	t.Helper()
	nodes := []types.NodeID{base, base + 1, base + 2, base + 3}
	g := newGroup(nodes, net, crypto.NewKeyring(0), consensus.Config{Timeout: timeout}, onDecide)
	t.Cleanup(g.stop)
	return g, nodes
}

func TestGroupOrderSyncDecides(t *testing.T) {
	g, _ := testGroup(t, network.New(), 0, 300*time.Millisecond, nil)
	for i := 0; i < 5; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := g.orderSync(v, types.HashBytes([]byte(v)), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if g.orderedCount() != 5 {
		t.Fatalf("ordered %d", g.orderedCount())
	}
}

func TestGroupOnDecideStreamsDecisions(t *testing.T) {
	got := make(chan consensus.Decision, 1)
	g, _ := testGroup(t, network.New(), 0, 300*time.Millisecond, func(d consensus.Decision) { got <- d })
	g.submit("a", types.HashBytes([]byte("a")))
	select {
	case d := <-got:
		if d.Value.(string) != "a" {
			t.Fatalf("got %v", d.Value)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision streamed")
	}
}

func TestGroupsIndependent(t *testing.T) {
	net := network.New()
	g0, _ := testGroup(t, net, 0, 300*time.Millisecond, nil)
	g1, _ := testGroup(t, net, 4, 300*time.Millisecond, nil)
	// Same value to both on one transport: each decides independently.
	for _, g := range []*group{g0, g1} {
		if err := g.orderSync("x", types.HashBytes([]byte("x")), 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if g0.orderedCount() != 1 || g1.orderedCount() != 1 {
		t.Fatalf("counts %d %d", g0.orderedCount(), g1.orderedCount())
	}
}

// TestGroupAggregateVotesDecides checks that a group built with
// AggregateVotes+BatchVotes in its consensus template still decides (the
// PBFT vote phases run on Schnorr quorum certificates).
func TestGroupAggregateVotesDecides(t *testing.T) {
	g := newGroup([]types.NodeID{0, 1, 2, 3}, network.New(), crypto.NewKeyring(0),
		consensus.Config{Timeout: 300 * time.Millisecond, AggregateVotes: true, BatchVotes: true}, nil)
	t.Cleanup(g.stop)
	for i := 0; i < 3; i++ {
		v := fmt.Sprintf("qc%d", i)
		if err := g.orderSync(v, types.HashBytes([]byte(v)), 10*time.Second); err != nil {
			t.Fatalf("aggregate-vote group did not decide: %v", err)
		}
	}
}

func TestGroupOrderSyncTimeout(t *testing.T) {
	net := network.New()
	g, nodes := testGroup(t, net, 0, 10*time.Second, nil)
	// Partition the group into singletons: no quorum, no decision.
	var groups [][]types.NodeID
	for _, n := range nodes {
		groups = append(groups, []types.NodeID{n})
	}
	net.Partition(groups...)
	err := g.orderSync("v", types.HashBytes([]byte("v")), 300*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}
