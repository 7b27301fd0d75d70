package height_test

import (
	"fmt"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/consensus/ibft"
	"permchain/internal/consensus/tendermint"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/types"
)

// protocols are the height-engine protocols every conformance case runs
// against; rounds names the counter each bumps when it leaves a round.
var protocols = []struct {
	name   string
	rounds string
	mk     func(consensus.Config) consensus.Replica
}{
	{"ibft", "ibft/round_changes", func(cfg consensus.Config) consensus.Replica { return ibft.New(cfg) }},
	{"tendermint", "tendermint/extra_rounds", func(cfg consensus.Config) consensus.Replica {
		return tendermint.New(tendermint.Config{Config: cfg})
	}},
}

// group is an n-validator cluster on one network with a shared Obs.
type group struct {
	net  *network.Network
	obs  *obs.Obs
	reps []consensus.Replica
	mk   func(i int) consensus.Replica
}

func newGroup(t *testing.T, n int, mk func(consensus.Config) consensus.Replica) *group {
	t.Helper()
	g := &group{net: network.New(), obs: obs.New(), reps: make([]consensus.Replica, n)}
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	g.mk = func(i int) consensus.Replica {
		return mk(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: g.net, Keys: keys,
			Timeout: 150 * time.Millisecond, Obs: g.obs,
		})
	}
	for i := range g.reps {
		g.reps[i] = g.mk(i)
		g.reps[i].Start()
	}
	t.Cleanup(func() {
		for _, r := range g.reps {
			r.Stop()
		}
	})
	return g
}

func (g *group) submit(to, i int) {
	v := fmt.Sprintf("h-%d", i)
	g.reps[to].Submit(v, types.HashBytes([]byte(v)))
}

// agree waits for k decisions on each listed validator and checks they
// decided the same digests at heights 1..k.
func (g *group) agree(t *testing.T, idxs []int, k int) {
	t.Helper()
	var ref []consensus.Decision
	for _, i := range idxs {
		ds := consensus.WaitDecisions(g.reps[i].Decisions(), k, 20*time.Second)
		if len(ds) != k {
			t.Fatalf("validator %d decided %d/%d", i, len(ds), k)
		}
		if ref == nil {
			ref = ds
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) || d.Digest != ref[j].Digest {
				t.Fatalf("validator %d decision %d = (seq %d, %v), want (seq %d, %v)",
					i, j, d.Seq, d.Digest, j+1, ref[j].Digest)
			}
		}
	}
}

func TestConformance(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			t.Run("agreement", func(t *testing.T) {
				g := newGroup(t, 4, p.mk)
				const k = 10
				for i := 0; i < k; i++ {
					g.submit(i%4, i)
				}
				g.agree(t, []int{0, 1, 2, 3}, k)
			})
			t.Run("no-duplicates", func(t *testing.T) {
				g := newGroup(t, 4, p.mk)
				for i := range g.reps {
					g.submit(i, 0)
				}
				if ds := consensus.WaitDecisions(g.reps[3].Decisions(), 1, 5*time.Second); len(ds) != 1 {
					t.Fatalf("decided %d", len(ds))
				}
				if extra := consensus.WaitDecisions(g.reps[3].Decisions(), 1, 500*time.Millisecond); len(extra) != 0 {
					t.Fatalf("same value decided twice: %v", extra)
				}
			})
			t.Run("silent-proposer", func(t *testing.T) {
				// Validator 1 proposes height 1 in round 0; silenced, it
				// forces the other three through a round change.
				g := newGroup(t, 4, p.mk)
				g.net.SetFilter(1, func(network.Message) []network.Message { return nil })
				const k = 6
				for i := 0; i < k; i++ {
					g.submit(0, i)
				}
				g.agree(t, []int{0, 2, 3}, k)
				if n := g.obs.Reg.Counter(p.rounds).Value(); n == 0 {
					t.Fatalf("%s = 0 with a silent proposer", p.rounds)
				}
			})
			// n = 6 is where height sync's >⅓-power rule needs one reply
			// more than f+1.
			for _, n := range []int{4, 6} {
				t.Run(fmt.Sprintf("crash-rejoin-n%d", n), func(t *testing.T) { crashRejoin(t, n, p.mk) })
			}
		})
	}
}

// crashRejoin crash-stops a validator, runs a workload it never sees, then
// rejoins a fresh incarnation on the same network and asserts height sync
// replays the complete decision log to it.
func crashRejoin(t *testing.T, n int, mk func(consensus.Config) consensus.Replica) {
	g := newGroup(t, n, mk)
	const pre, during = 4, 4
	for i := 0; i < pre; i++ {
		g.submit(0, i)
	}
	for i := 1; i < n; i++ {
		if got := len(consensus.WaitDecisions(g.reps[i].Decisions(), pre, 10*time.Second)); got != pre {
			t.Fatalf("validator %d decided %d/%d before crash", i, got, pre)
		}
	}

	victim := n - 1
	g.net.Crash(types.NodeID(victim))
	g.reps[victim].Stop()
	for i := pre; i < pre+during; i++ {
		g.submit(0, i)
	}
	if got := len(consensus.WaitDecisions(g.reps[1].Decisions(), during, 15*time.Second)); got != during {
		t.Fatalf("live cluster decided %d/%d during crash", got, during)
	}

	// Restart: a fresh, empty incarnation rejoins the same network. One
	// post-restart probe keeps traffic flowing while catch-up runs.
	g.net.Rejoin(types.NodeID(victim))
	g.net.Restore(types.NodeID(victim))
	g.reps[victim] = g.mk(victim)
	g.reps[victim].Start()
	g.submit(0, pre+during)
	g.agree(t, []int{0, victim}, pre+during+1)
}
