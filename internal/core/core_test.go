package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"permchain/internal/obs"
	storepkg "permchain/internal/store"
	"permchain/internal/types"
	"permchain/internal/workload"
)

func newChain(t *testing.T, cfg Config) *Chain {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 400 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func addTx(id, key string, d int64) *types.Transaction {
	return &types.Transaction{ID: id, Ops: []types.Op{{Code: types.OpAdd, Key: key, Delta: d}}}
}

func TestFigure1FiveNodeReplication(t *testing.T) {
	// The paper's Figure 1: five nodes, each maintaining its own copy of
	// the blockchain ledger; after processing, all copies are identical.
	c := newChain(t, Config{Nodes: 5, Protocol: PBFT, Arch: OX, BlockSize: 8})
	const k = 40
	for i := 0; i < k; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i%10), 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
		t.Fatalf("nodes processed %d/%d", c.Node(0).ProcessedTxs(), k)
	}
	if err := c.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
	if c.Node(0).Chain().Height() == 0 {
		t.Fatal("no blocks produced")
	}
	if c.Node(0).Store().GetInt("k0") != 4 {
		t.Fatalf("k0 = %d", c.Node(0).Store().GetInt("k0"))
	}
}

func TestAllProtocolsProduceIdenticalLedgers(t *testing.T) {
	for _, p := range []Protocol{PBFT, Raft, Paxos, Tendermint, HotStuff, IBFT} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c := newChain(t, Config{Nodes: 4, Protocol: p, Arch: OX, BlockSize: 4})
			const k = 12
			for i := 0; i < k; i++ {
				if err := c.Submit(addTx(fmt.Sprintf("%s-%d", p, i), "ctr", 1)); err != nil {
					t.Fatal(err)
				}
			}
			c.Flush()
			if !c.Await(AwaitSpec{Txs: k, Timeout: 30 * time.Second}) {
				t.Fatalf("%v: processed %d/%d", p, c.Node(0).ProcessedTxs(), k)
			}
			if err := c.VerifyReplication(); err != nil {
				t.Fatal(err)
			}
			if got := c.Node(0).Store().GetInt("ctr"); got != k {
				t.Fatalf("ctr = %d", got)
			}
		})
	}
}

func TestAllArchitecturesAgreeOnUncontended(t *testing.T) {
	// With no conflicts, OX, OXII and XOV must produce identical results.
	run := func(a Architecture) (int64, archStats) {
		c := newChain(t, Config{Nodes: 4, Arch: a, BlockSize: 16})
		const k = 32
		for i := 0; i < k; i++ {
			if err := c.Submit(addTx(fmt.Sprintf("%v-%d", a, i), fmt.Sprintf("k%d", i), 1)); err != nil {
				t.Fatal(err)
			}
		}
		c.Flush()
		if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
			t.Fatalf("%v: processed %d/%d", a, c.Node(0).ProcessedTxs(), k)
		}
		if err := c.VerifyReplication(); err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := 0; i < k; i++ {
			total += c.Node(0).Store().GetInt(fmt.Sprintf("k%d", i))
		}
		st := c.Node(0).Stats()
		return total, archStats{committed: st.Committed, aborted: st.Aborted}
	}
	for _, a := range []Architecture{OX, OXII, XOV} {
		total, st := run(a)
		if total != 32 {
			t.Fatalf("%v: total %d", a, total)
		}
		if st.committed != 32 || st.aborted != 0 {
			t.Fatalf("%v: stats %+v", a, st)
		}
	}
}

type archStats struct{ committed, aborted int }

func TestXOVAbortsUnderContentionOXIIDoesNot(t *testing.T) {
	// The §2.3.3 Discussion claim in miniature: all transactions hit one
	// key. OXII serializes them via the dependency graph (no aborts);
	// XOV endorses them against the same snapshot and aborts the losers.
	const k = 16
	mkTxs := func(prefix string) []*types.Transaction {
		var out []*types.Transaction
		for i := 0; i < k; i++ {
			out = append(out, addTx(fmt.Sprintf("%s-%d", prefix, i), "hot", 1))
		}
		return out
	}

	oxii := newChain(t, Config{Nodes: 4, Arch: OXII, BlockSize: k})
	for _, tx := range mkTxs("oxii") {
		if err := oxii.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	oxii.Flush()
	if !oxii.Await(AwaitSpec{Nodes: []int{0}, Txs: k, Timeout: 20 * time.Second}) {
		t.Fatal("oxii stalled")
	}
	if st := oxii.Node(0).Stats(); st.Aborted != 0 || st.Committed != k {
		t.Fatalf("OXII stats %+v", st)
	}
	if got := oxii.Node(0).Store().GetInt("hot"); got != k {
		t.Fatalf("OXII hot = %d", got)
	}

	xovC := newChain(t, Config{Nodes: 4, Arch: XOV, BlockSize: k})
	for _, tx := range mkTxs("xov") {
		if err := xovC.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	xovC.Flush()
	if !xovC.Await(AwaitSpec{Nodes: []int{0}, Txs: k, Timeout: 20 * time.Second}) {
		t.Fatal("xov stalled")
	}
	st := xovC.Node(0).Stats()
	if st.Aborted == 0 {
		t.Fatalf("XOV stats %+v: expected aborts under contention", st)
	}
	if st.Committed+st.Aborted != k {
		t.Fatalf("XOV stats %+v do not add up", st)
	}
	// No lost updates: hot == committed count.
	if got := xovC.Node(0).Store().GetInt("hot"); got != int64(st.Committed) {
		t.Fatalf("hot = %d, committed = %d", got, st.Committed)
	}
}

func TestWorkloadIntegration(t *testing.T) {
	c := newChain(t, Config{Nodes: 4, Arch: OXII, BlockSize: 32})
	txs := workload.New(3).KV(workload.KVConfig{Txs: 64, Keys: 100, OpsPerTx: 2, Skew: 1.1})
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: 64, Timeout: 20 * time.Second}) {
		t.Fatal("stalled")
	}
	if err := c.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterStop(t *testing.T) {
	c, err := New(Config{Nodes: 4, Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	if err := c.Submit(addTx("t", "k", 1)); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
}

func TestStringers(t *testing.T) {
	if PBFT.String() != "pbft" || HotStuff.String() != "hotstuff" {
		t.Fatal("protocol stringer")
	}
	if OX.String() != "OX" || OXII.String() != "OXII" || XOV.String() != "XOV" {
		t.Fatal("arch stringer")
	}
}

func TestProvenanceHistory(t *testing.T) {
	c := newChain(t, Config{Nodes: 4, Arch: OX, BlockSize: 1, HistoryLimit: 10})
	for i := 1; i <= 3; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("t%d", i), "asset", int64(i))); err != nil {
			t.Fatal(err)
		}
		c.Flush()
		if !c.Await(AwaitSpec{Nodes: []int{0}, Txs: i, Timeout: 10 * time.Second}) {
			t.Fatalf("tx %d stalled", i)
		}
	}
	// The asset's full history is queryable: 1, 1+2, 1+2+3.
	h := c.Node(0).Store().History("asset")
	if len(h) != 3 {
		t.Fatalf("history entries = %d, want 3", len(h))
	}
	want := []string{"1", "3", "6"}
	for i, e := range h {
		if string(e.Value) != want[i] {
			t.Fatalf("history[%d] = %s, want %s", i, e.Value, want[i])
		}
	}
	// Versions are increasing and carry block heights.
	for i := 1; i < len(h); i++ {
		if !h[i-1].Version.Less(h[i].Version) {
			t.Fatal("history versions not increasing")
		}
	}
}

func TestDurableRestartRecoversLedgerAndState(t *testing.T) {
	dir := t.TempDir()
	scfg := &storepkg.Config{Dir: dir, Fsync: storepkg.FsyncAlways, SnapshotEvery: 3}
	o := obs.New()
	cfg := Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 4,
		Timeout: 400 * time.Millisecond, Store: scfg, Obs: o}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const k = 40
	for i := 0; i < k; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i%10), 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
		t.Fatalf("processed %d/%d", c.Node(0).ProcessedTxs(), k)
	}
	wantHeight := c.Node(0).Chain().Height()
	wantState := c.Node(0).Store().StateHash()
	wantHead := c.Node(0).Chain().Head().Hash()
	c.Stop()

	// Reopen the whole cluster from disk.
	re, err := OpenChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range re.Nodes() {
		if got := n.Chain().Height(); got != wantHeight {
			t.Fatalf("node %v recovered height %d, want %d", n.ID, got, wantHeight)
		}
		if n.Chain().Head().Hash() != wantHead {
			t.Fatalf("node %v head hash differs after recovery", n.ID)
		}
		if n.Store().StateHash() != wantState {
			t.Fatalf("node %v state hash differs after recovery", n.ID)
		}
		if err := n.Chain().Verify(); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Reg.Snapshot()
	if snap.Counters["store/loaded_blocks"] == 0 {
		t.Fatal("no loaded_blocks recorded")
	}
	// SnapshotEvery=3 guarantees snapshots exist, so replay must cover
	// strictly fewer blocks than were loaded.
	if snap.Counters["store/replayed_blocks"] >= snap.Counters["store/loaded_blocks"] {
		t.Fatalf("replayed %d >= loaded %d despite snapshots",
			snap.Counters["store/replayed_blocks"], snap.Counters["store/loaded_blocks"])
	}

	// The recovered cluster keeps working and stays replicated.
	re.Start()
	defer re.Stop()
	const k2 = 8
	for i := 0; i < k2; i++ {
		if err := re.Submit(addTx(fmt.Sprintf("post-%d", i), "post", 1)); err != nil {
			t.Fatal(err)
		}
	}
	re.Flush()
	if !re.Await(AwaitSpec{Txs: k2, Timeout: 20 * time.Second}) {
		t.Fatalf("post-restart processed %d/%d", re.Node(0).ProcessedTxs(), k2)
	}
	if err := re.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
	if got := re.Node(0).Chain().Height(); got <= wantHeight {
		t.Fatalf("height %d did not advance past %d", got, wantHeight)
	}
	if re.Node(0).Store().GetInt("post") != k2 {
		t.Fatalf("post = %d", re.Node(0).Store().GetInt("post"))
	}
	if re.Node(0).Store().GetInt("k0") != 4 {
		t.Fatalf("recovered k0 = %d", re.Node(0).Store().GetInt("k0"))
	}
}

func TestNewRefusesExistingDurableState(t *testing.T) {
	dir := t.TempDir()
	scfg := &storepkg.Config{Dir: dir, Fsync: storepkg.FsyncOff}
	cfg := Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 2,
		Timeout: 400 * time.Millisecond, Store: scfg}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 4; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("t%d", i), "k", 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: 4, Timeout: 20 * time.Second}) {
		t.Fatal("no progress")
	}
	c.Stop()

	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a directory with existing blocks")
	} else if !strings.Contains(err.Error(), "OpenChain") {
		t.Fatalf("error does not point at OpenChain: %v", err)
	}
}

func TestStakesMustMatchNodes(t *testing.T) {
	_, err := New(Config{Nodes: 4, Protocol: Tendermint, Stakes: []int64{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "2 stakes for 4 nodes") {
		t.Fatalf("New with 2 stakes for 4 nodes: err = %v", err)
	}
}

func TestOpenChainOnEmptyDirIsFresh(t *testing.T) {
	dir := t.TempDir()
	scfg := &storepkg.Config{Dir: dir, Fsync: storepkg.FsyncOff}
	c, err := OpenChain(Config{Nodes: 4, Protocol: PBFT, Arch: OX,
		Timeout: 400 * time.Millisecond, Store: scfg})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if c.Node(0).Chain().Height() != 0 {
		t.Fatal("fresh chain has blocks")
	}
	if c.Node(0).Disk() == nil {
		t.Fatal("durable chain has no disk store")
	}
}

func TestOpenChainCatchesUpLaggingNode(t *testing.T) {
	dir := t.TempDir()
	scfg := &storepkg.Config{Dir: dir, Fsync: storepkg.FsyncAlways}
	cfg := Config{Nodes: 4, Protocol: PBFT, Arch: OX, BlockSize: 4,
		Timeout: 400 * time.Millisecond, Store: scfg}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const k = 20
	for i := 0; i < k; i++ {
		if err := c.Submit(addTx(fmt.Sprintf("t%d", i), fmt.Sprintf("k%d", i%5), 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if !c.Await(AwaitSpec{Txs: k, Timeout: 20 * time.Second}) {
		t.Fatal("no progress")
	}
	wantState := c.Node(0).Store().StateHash()
	c.Stop()

	// Rebuild node 3's store one block short: the node went down lagging.
	nodeDir := filepath.Join(dir, "node-3")
	short, err := storepkg.Open(storepkg.Config{Dir: nodeDir})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []*types.Block
	if err := short.ReplayBlocks(1, func(b *types.Block) error {
		blocks = append(blocks, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	short.Close()
	if err := os.RemoveAll(nodeDir); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := storepkg.Open(storepkg.Config{Dir: nodeDir, Fsync: storepkg.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[:len(blocks)-1] {
		if err := rebuilt.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt.Close()

	o := obs.New()
	cfg.Obs = o
	re, err := OpenChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	re.Start()
	defer re.Stop()
	wantHeight := re.Node(0).Chain().Height()
	if got := re.Node(3).Chain().Height(); got != wantHeight {
		t.Fatalf("node 3 height %d, want %d after catch-up", got, wantHeight)
	}
	if re.Node(3).Store().StateHash() != wantState {
		t.Fatal("node 3 state differs after catch-up")
	}
	if err := re.VerifyReplication(); err != nil {
		t.Fatal(err)
	}
	if o.Reg.Snapshot().Counters["store/catchup_blocks"] != 1 {
		t.Fatalf("catchup_blocks = %d, want 1", o.Reg.Snapshot().Counters["store/catchup_blocks"])
	}
	// Node 3's disk now holds the caught-up suffix too.
	if got := re.Node(3).Disk().Height(); got != wantHeight {
		t.Fatalf("node 3 durable height %d, want %d", got, wantHeight)
	}
}
