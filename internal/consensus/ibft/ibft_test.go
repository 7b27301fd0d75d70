package ibft

import (
	"fmt"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/types"
)

func cluster(t *testing.T, n int) []*Replica {
	t.Helper()
	net := network.New()
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 150 * time.Millisecond,
		})
	}
	for _, r := range reps {
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return reps
}

func val(i int) (string, types.Hash) {
	v := fmt.Sprintf("ib-%d", i)
	return v, types.HashBytes([]byte(v))
}

func TestProposerRotatesPerHeight(t *testing.T) {
	r := New(consensus.Config{
		Self: 0, Nodes: []types.NodeID{0, 1, 2, 3},
		Net: network.New(), Keys: crypto.NewKeyring(4),
	})
	if r.Proposer(1, 0) == r.Proposer(2, 0) {
		t.Fatal("proposer did not rotate across heights")
	}
	if r.Proposer(1, 0) == r.Proposer(1, 1) {
		t.Fatal("proposer did not rotate across rounds")
	}
}

func TestCrashFaultMidStream(t *testing.T) {
	reps := cluster(t, 4)
	v0, d0 := val(0)
	reps[0].Submit(v0, d0)
	for i := range reps {
		if len(consensus.WaitDecisions(reps[i].Decisions(), 1, 5*time.Second)) != 1 {
			t.Fatalf("validator %d missed initial decision", i)
		}
	}
	reps[3].Stop()
	const k = 4
	for i := 1; i <= k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	for _, idx := range []int{0, 1, 2} {
		ds := consensus.WaitDecisions(reps[idx].Decisions(), k, 20*time.Second)
		if len(ds) != k {
			t.Fatalf("validator %d decided %d/%d after crash", idx, len(ds), k)
		}
	}
}
