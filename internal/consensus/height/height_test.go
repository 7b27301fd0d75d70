package height

import (
	"testing"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/types"
)

// idle is a Protocol that never starts a round or votes.
type idle struct{}

func (idle) StartRound()               {}
func (idle) OnMessage(network.Message) {}
func (idle) OnTimeout()                {}
func (idle) ResetHeight()              {}

// newEngine returns validator 0 of an n-validator group, not started.
func newEngine(n int) *Engine {
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	cfg := consensus.Config{Self: 0, Nodes: nodes, Net: network.New(), Keys: crypto.NewKeyring(n)}
	return New(cfg.Defaulted(), nil, Names{Metric: "test"}, idle{})
}

// TestSyncVotesBounded checks both ways sync replies could pile up: a
// flood for heights no request solicited, and a reply for a height that
// normal consensus decides before sync adopts it.
func TestSyncVotesBounded(t *testing.T) {
	e := newEngine(4)
	d := types.HashBytes([]byte("v"))
	for h := uint64(1_000_000); h < 1_001_000; h++ {
		e.onSyncRep(1, syncRep{Height: h, Digest: d})
	}
	e.onSyncRep(1, syncRep{Height: 1 + syncBatch, Digest: d})
	if len(e.syncVotes) != 0 {
		t.Fatalf("kept %d sync entries for unsolicited heights", len(e.syncVotes))
	}
	// One reply (power 1 of 4) is not enough to adopt height 1.
	e.onSyncRep(1, syncRep{Height: 1, Digest: d})
	e.onSyncRep(1, syncRep{Height: syncBatch, Digest: d})
	if len(e.syncVotes) != 2 || e.height != 1 {
		t.Fatalf("in-window replies: %d entries at height %d, want 2 at 1", len(e.syncVotes), e.height)
	}
	e.Decide(d)
	if _, ok := e.syncVotes[1]; ok {
		t.Fatal("sync entry for a decided height survived Decide")
	}
}

// TestSyncAdoptsAboveOneThirdPower pins the adoption rule at n = 6, where
// more than a third of the power (3 replies) is one more than f+1.
func TestSyncAdoptsAboveOneThirdPower(t *testing.T) {
	e := newEngine(6)
	d := types.HashBytes([]byte("v"))
	for from := types.NodeID(1); from <= 3; from++ {
		if e.height != 1 {
			t.Fatalf("adopted height 1 after %d of 6 replies", from-1)
		}
		e.onSyncRep(from, syncRep{Height: 1, Digest: d, Value: "v"})
	}
	if dec := <-e.Decisions(); e.height != 2 || dec.Seq != 1 || dec.Digest != d || dec.Value != "v" {
		t.Fatalf("after three of six replies: height %d, adopted %+v", e.height, dec)
	}
}
