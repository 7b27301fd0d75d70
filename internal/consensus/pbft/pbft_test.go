package pbft

import (
	"fmt"
	"log/slog"
	"os"
	"testing"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/crypto"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/quorumcert"
	"permchain/internal/types"
)

func cluster(t *testing.T, n int, opts ...network.Option) (*network.Network, []*Replica) {
	t.Helper()
	var o *obs.Obs
	if os.Getenv("PBFT_DEBUG") != "" {
		o = obs.New()
		o.SetLogHandler(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}
	return observedCluster(t, n, o, opts...)
}

// observedCluster is cluster with every replica reporting into o.
func observedCluster(t *testing.T, n int, o *obs.Obs, opts ...network.Option) (*network.Network, []*Replica) {
	t.Helper()
	net := network.New(opts...)
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 150 * time.Millisecond, Obs: o,
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
	return net, reps
}

func val(i int) (string, types.Hash) {
	v := fmt.Sprintf("req-%d", i)
	return v, types.HashBytes([]byte(v))
}

// checkAgreement asserts all replicas decided the same digest per seq.
func checkAgreement(t *testing.T, all [][]consensus.Decision) {
	t.Helper()
	bySeq := map[uint64]types.Hash{}
	for ri, ds := range all {
		for _, d := range ds {
			if prev, ok := bySeq[d.Seq]; ok {
				if prev != d.Digest {
					t.Fatalf("replica %d decided seq %d = %v, another decided %v", ri, d.Seq, d.Digest, prev)
				}
			} else {
				bySeq[d.Seq] = d.Digest
			}
		}
	}
}

func TestNormalOperation(t *testing.T) {
	o := obs.New()
	_, reps := observedCluster(t, 4, o)
	const k = 20
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[i%4].Submit(v, d) // submit via every replica, not just the leader
	}
	all := make([][]consensus.Decision, 4)
	for i, r := range reps {
		all[i] = consensus.WaitDecisions(r.Decisions(), k, 5*time.Second)
		if len(all[i]) != k {
			t.Fatalf("replica %d decided %d/%d", i, len(all[i]), k)
		}
		// In-order delivery.
		for j, d := range all[i] {
			if d.Seq != uint64(j+1) {
				t.Fatalf("replica %d decision %d has seq %d", i, j, d.Seq)
			}
		}
	}
	checkAgreement(t, all)
	// All k distinct requests decided exactly once.
	seen := map[types.Hash]bool{}
	for _, d := range all[0] {
		if seen[d.Digest] {
			t.Fatalf("digest %v decided twice", d.Digest)
		}
		seen[d.Digest] = true
	}
	if len(seen) != k {
		t.Fatalf("decided %d distinct requests, want %d", len(seen), k)
	}
	// At n = 4 each slot draws one prepare and one commit beyond its
	// quorum; both are dropped before their signature check.
	if o.Reg.Snapshot().Counters["pbft/votes_skipped"] == 0 {
		t.Fatal("pbft/votes_skipped stayed 0: no settled vote skipped its signature check")
	}
}

func TestSubmitViaFollowerForwards(t *testing.T) {
	_, reps := cluster(t, 4)
	v, d := val(1)
	reps[2].Submit(v, d)
	got := consensus.WaitDecisions(reps[3].Decisions(), 1, 3*time.Second)
	if len(got) != 1 || got[0].Digest != d {
		t.Fatalf("got %v", got)
	}
	if got[0].Value.(string) != v {
		t.Fatalf("value = %v", got[0].Value)
	}
}

func TestCrashedLeaderViewChange(t *testing.T) {
	_, reps := cluster(t, 4)
	reps[0].Stop() // primary of view 0 dies before any request

	for i := 0; i < 5; i++ {
		v, d := val(i)
		reps[1].Submit(v, d)
	}
	all := make([][]consensus.Decision, 0, 3)
	for _, r := range reps[1:] {
		ds := consensus.WaitDecisions(r.Decisions(), 5, 10*time.Second)
		if len(ds) != 5 {
			t.Fatalf("replica %v decided %d/5 after leader crash", r.ID(), len(ds))
		}
		all = append(all, ds)
	}
	checkAgreement(t, all)
}

func TestBackToBackLeaderFailures(t *testing.T) {
	// Views 0 and 1 both have dead primaries; the protocol must reach
	// view 2 via repeated timeouts.
	_, reps := cluster(t, 7) // f=2
	reps[0].Stop()
	reps[1].Stop()
	v, d := val(0)
	reps[2].Submit(v, d)
	ds := consensus.WaitDecisions(reps[3].Decisions(), 1, 15*time.Second)
	if len(ds) != 1 || ds[0].Digest != d {
		t.Fatalf("no decision after two leader failures: %v", ds)
	}
}

func TestEquivocatingLeaderSafety(t *testing.T) {
	net, reps := cluster(t, 4)
	// Leader (node 0) equivocates on pre-prepares: different digests to
	// different replicas. Safety: no two replicas may decide different
	// digests for the same sequence number.
	net.SetFilter(0, func(m network.Message) []network.Message {
		pp, ok := m.Payload.(prePrepare)
		if !ok {
			return []network.Message{m}
		}
		forged := pp
		v := fmt.Sprintf("forged-%d", pp.Seq)
		forged.Digest = types.HashBytes([]byte(v))
		forged.Value = v
		// forged.Sig stays stale, but the test runs with signatures on,
		// so forge a fresh signature is impossible for the filter; the
		// receivers will drop it. Send the real one to half the nodes to
		// at least split the prepares.
		if m.To == 1 {
			return []network.Message{m}
		}
		return []network.Message{{From: 0, To: m.To, Type: m.Type, Payload: forged}}
	})

	for i := 0; i < 3; i++ {
		v, d := val(i)
		reps[1].Submit(v, d)
	}
	// Give the protocol time to either commit (after view change) or stall.
	time.Sleep(2 * time.Second)
	net.SetFilter(0, nil)

	all := make([][]consensus.Decision, 4)
	for i, r := range reps {
		all[i] = consensus.WaitDecisions(r.Decisions(), 3, 8*time.Second)
	}
	checkAgreement(t, all)
	// Liveness: the correct replicas eventually decided all 3 requests.
	for i := 1; i < 4; i++ {
		if len(all[i]) < 3 {
			t.Fatalf("replica %d decided only %d/3 after equivocation", i, len(all[i]))
		}
	}
}

func TestTamperedSignatureRejected(t *testing.T) {
	net, reps := cluster(t, 4)
	// Node 3 corrupts its prepare/commit signatures; with f=1 tolerance
	// the cluster must still decide, and node 3's votes must not count.
	net.SetFilter(3, func(m network.Message) []network.Message {
		if v, ok := m.Payload.(vote); ok {
			v.Sig = []byte("garbage")
			return []network.Message{{From: 3, To: m.To, Type: m.Type, Payload: v}}
		}
		return []network.Message{m}
	})
	v, d := val(0)
	reps[0].Submit(v, d)
	ds := consensus.WaitDecisions(reps[1].Decisions(), 1, 5*time.Second)
	if len(ds) != 1 || ds[0].Digest != d {
		t.Fatalf("decision with tampered sigs: %v", ds)
	}
}

// TestForgedCommitForOpenSlotRejected: the skip applies only to decided
// slots. A commit with a bad signature for a slot still open must be
// dropped without creating slot state, while a well-signed one counts.
func TestForgedCommitForOpenSlotRejected(t *testing.T) {
	keys := crypto.NewKeyring(4)
	nodes := []types.NodeID{0, 1, 2, 3}
	cfg := func(self types.NodeID) consensus.Config {
		return consensus.Config{Self: self, Nodes: nodes, Net: network.New(), Keys: keys, Timeout: time.Second}
	}
	r := New(cfg(0)) // never started: the test drives onMessage itself
	_, d := val(0)
	commit := func(from types.NodeID, sig []byte) {
		r.onMessage(network.Message{From: from, Type: msgCommit, Payload: vote{View: 0, Seq: 1, Digest: d, Sig: sig}})
	}
	for from := types.NodeID(1); from < 4; from++ {
		commit(from, []byte("garbage"))
	}
	if _, ok := r.slots[1]; ok {
		t.Fatal("forged commits created state for an open slot")
	}
	signer := cfg(1)
	commit(1, signer.SignPart([]byte(msgCommit), consensus.U64(0), consensus.U64(1), d[:]))
	s, ok := r.slots[1]
	if !ok || s.commits.Count(viewKey(0), d) != 1 {
		t.Fatal("well-signed commit not counted")
	}
	// The slot exists now but is not decided: forgeries still fail.
	commit(2, []byte("garbage"))
	commit(3, []byte("garbage"))
	if n := s.commits.Count(viewKey(0), d); n != 1 || s.committed {
		t.Fatalf("forged commits counted on an open slot: count %d, committed %v", n, s.committed)
	}
}

// TestPrepareSkipNeedsCommitInVotesView: a slot that sent its commit in
// view 0 and then takes a pre-prepare in view 1 must count view-1
// prepares again, or it could never prepare in view 1.
func TestPrepareSkipNeedsCommitInVotesView(t *testing.T) {
	keys := crypto.NewKeyring(4)
	nodes := []types.NodeID{0, 1, 2, 3}
	r := New(consensus.Config{Self: 0, Nodes: nodes, Net: network.New(), Keys: keys, Timeout: time.Second})
	_, d := val(0)
	s := newSlot()
	s.hasPP, s.ppView, s.digest, s.sentCommit = true, 0, d, true
	r.slots[1] = s
	r.view = 1
	r.acceptPrePrepare(r.primary(1), prePrepare{View: 1, Seq: 1, Digest: d})
	if s.sentCommit {
		t.Fatal("sentCommit from view 0 survived a view-1 pre-prepare")
	}
	signer := consensus.Config{Self: 2, Keys: keys}
	r.onMessage(network.Message{From: 2, Type: msgPrepare, Payload: vote{View: 1, Seq: 1, Digest: d,
		Sig: signer.SignPart([]byte(msgPrepare), consensus.U64(1), consensus.U64(1), d[:])}})
	if n := s.prepares.Count(viewKey(1), d); n != 2 {
		t.Fatalf("view-1 prepares counted %d, want 2 (own and node 2's)", n)
	}
}

func TestDuplicateSubmitDecidedOnce(t *testing.T) {
	_, reps := cluster(t, 4)
	v, d := val(0)
	for i := 0; i < 5; i++ {
		reps[0].Submit(v, d)
	}
	v2, d2 := val(1)
	reps[0].Submit(v2, d2)
	ds := consensus.WaitDecisions(reps[2].Decisions(), 2, 3*time.Second)
	if len(ds) != 2 {
		t.Fatalf("decided %d", len(ds))
	}
	// No third decision should arrive: the duplicate was deduped.
	extra := consensus.WaitDecisions(reps[2].Decisions(), 1, 300*time.Millisecond)
	if len(extra) != 0 {
		t.Fatalf("duplicate request decided again: %v", extra)
	}
}

func TestLossyNetworkStillDecides(t *testing.T) {
	// 10% loss: retransmission-free PBFT can stall on specific drops, but
	// view changes re-propose prepared requests, so the request should
	// still eventually commit.
	_, reps := cluster(t, 4, network.WithDropRate(0.10), network.WithSeed(42))
	const k = 5
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	ds := consensus.WaitDecisions(reps[1].Decisions(), k, 20*time.Second)
	if len(ds) < k {
		t.Fatalf("decided %d/%d under loss", len(ds), k)
	}
}

func TestStopIdempotent(t *testing.T) {
	_, reps := cluster(t, 4)
	reps[0].Stop()
	reps[0].Stop()
}

func BenchmarkPBFTThroughput4(b *testing.B) {
	benchN(b, 4)
}

func BenchmarkPBFTThroughput7(b *testing.B) {
	benchN(b, 7)
}

func benchN(b *testing.B, n int) {
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
			Timeout: 5 * time.Second, DisableSig: true,
		})
		reps[i].Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		consensus.WaitDecisions(reps[0].Decisions(), b.N, time.Minute)
	}()
	for i := 0; i < b.N; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	<-done
}

func TestCheckpointGarbageCollection(t *testing.T) {
	_, reps := cluster(t, 4)
	// Push several checkpoint windows of decisions through.
	const k = 3*checkpointEvery + 10
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	// Generous deadline: under -race this workload rides through double-
	// digit view changes, and capped backoff views are multi-second.
	for i, r := range reps {
		ds := consensus.WaitDecisions(r.Decisions(), k, 120*time.Second)
		if len(ds) != k {
			t.Fatalf("replica %d decided %d/%d", i, len(ds), k)
		}
	}
	// Checkpoint GC is asynchronous: a laggard replica reaches its last
	// decision from commit traffic enqueued long before its peers'
	// checkpoint votes, so those votes may still be queued in its inbox
	// at this point. Give each replica time to drain and stabilize
	// before freezing the cluster — stopping at the instant of the last
	// decision would assert on a half-delivered protocol state.
	const bound = 2*checkpointEvery + 16
	deadline := time.Now().Add(30 * time.Second)
	for _, r := range reps {
		for r.SlotCount() > bound && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, r := range reps {
		r.Stop()
	}
	// Slots at or below stable-window must be reclaimed: far fewer than k
	// retained (exactly: everything ≤ 2*checkpointEvery reclaimed once
	// the 3rd checkpoint stabilized).
	for i, r := range reps {
		if got := r.SlotCount(); got > bound {
			t.Fatalf("replica %d retains %d slots after GC (k=%d)", i, got, k)
		}
	}
}

// TestCrashRecoveryCatchUp crash-stops a follower, runs a workload it never
// sees, then rejoins a fresh incarnation on the same network and asserts it
// replays the complete decision log (status gossip reveals the lag, gap
// fetches chain through knownExec until caught up).
func TestCrashRecoveryCatchUp(t *testing.T) {
	const n = 4
	net := network.New()
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	mk := func(i int) *Replica {
		return New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 150 * time.Millisecond,
		})
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = mk(i)
		reps[i].Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})

	submit := func(i int) {
		v, d := val(i)
		reps[0].Submit(v, d)
	}
	const pre = 4
	for i := 0; i < pre; i++ {
		submit(i)
	}
	ref := consensus.WaitDecisions(reps[0].Decisions(), pre, 10*time.Second)
	for i := 1; i < n; i++ {
		if got := len(consensus.WaitDecisions(reps[i].Decisions(), pre, 10*time.Second)); got != pre {
			t.Fatalf("replica %d decided %d/%d before crash", i, got, pre)
		}
	}

	const victim = n - 1
	net.Crash(types.NodeID(victim))
	reps[victim].Stop()

	const during = 4
	for i := pre; i < pre+during; i++ {
		submit(i)
	}
	ref = append(ref, consensus.WaitDecisions(reps[0].Decisions(), during, 10*time.Second)...)
	if len(ref) != pre+during {
		t.Fatalf("live cluster decided %d/%d during crash", len(ref), pre+during)
	}

	// Restart: a fresh, empty incarnation rejoins the same network.
	net.Rejoin(types.NodeID(victim))
	net.Restore(types.NodeID(victim))
	reps[victim] = mk(victim)
	reps[victim].Start()

	// One post-restart probe keeps traffic flowing while catch-up runs.
	submit(pre + during)
	const total = pre + during + 1
	ref = append(ref, consensus.WaitDecisions(reps[0].Decisions(), 1, 10*time.Second)...)
	ds := consensus.WaitDecisions(reps[victim].Decisions(), total, 20*time.Second)
	if len(ds) != total {
		t.Fatalf("restarted replica caught up %d/%d decisions", len(ds), total)
	}
	for j, dec := range ds {
		if dec.Seq != uint64(j+1) || dec.Digest != ref[j].Digest {
			t.Fatalf("restarted replica decision %d = (seq %d, %v), want (seq %d, %v)",
				j, dec.Seq, dec.Digest, ref[j].Seq, ref[j].Digest)
		}
	}
}

// TestPartitionDuringViewChange isolates the view-0 primary behind a
// partition: the majority must complete a view change amongst themselves
// and keep committing, and the stale primary must catch up on the decided
// log (via status gossip and gap fetches) once the partition heals.
func TestPartitionDuringViewChange(t *testing.T) {
	net, reps := cluster(t, 4)
	net.Partition([]types.NodeID{0}, []types.NodeID{1, 2, 3})

	const k = 5
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[1].Submit(v, d)
	}
	all := make([][]consensus.Decision, 4)
	for i := 1; i < 4; i++ {
		all[i] = consensus.WaitDecisions(reps[i].Decisions(), k, 15*time.Second)
		if len(all[i]) != k {
			t.Fatalf("replica %d decided %d/%d with primary partitioned away", i, len(all[i]), k)
		}
	}

	// Heal: node 0 rejoins holding a stale view and an empty log; the
	// others' status gossip reveals the gap and fetches chain it closed.
	net.Heal()
	v, d := val(k)
	reps[1].Submit(v, d)
	all[0] = consensus.WaitDecisions(reps[0].Decisions(), k+1, 20*time.Second)
	if len(all[0]) != k+1 {
		t.Fatalf("healed primary caught up %d/%d decisions", len(all[0]), k+1)
	}
	checkAgreement(t, all)
}

// aggCluster builds a cluster running aggregate-vote mode: one shared
// Schnorr key set, certificates relayed by the primary, optional vote
// batching.
func aggCluster(t *testing.T, n int, batch bool) (*network.Network, []*Replica) {
	t.Helper()
	net := network.New()
	keys := crypto.NewKeyring(n)
	voteKeys := quorumcert.NewKeys()
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout:        150 * time.Millisecond,
			AggregateVotes: true, VoteKeys: voteKeys, BatchVotes: batch,
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
	return net, reps
}

func TestAggregatedNormalOperation(t *testing.T) {
	_, reps := aggCluster(t, 4, false)
	const k = 12
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[i%4].Submit(v, d)
	}
	all := make([][]consensus.Decision, 4)
	for i, r := range reps {
		all[i] = consensus.WaitDecisions(r.Decisions(), k, 10*time.Second)
		if len(all[i]) != k {
			t.Fatalf("replica %d decided %d/%d in aggregate mode", i, len(all[i]), k)
		}
		for j, d := range all[i] {
			if d.Seq != uint64(j+1) {
				t.Fatalf("replica %d decision %d has seq %d", i, j, d.Seq)
			}
		}
	}
	checkAgreement(t, all)
}

func TestAggregatedWithBatchingCommits(t *testing.T) {
	_, reps := aggCluster(t, 7, true)
	const k = 8
	for i := 0; i < k; i++ {
		v, d := val(i)
		reps[i%7].Submit(v, d)
	}
	all := make([][]consensus.Decision, 7)
	for i, r := range reps {
		all[i] = consensus.WaitDecisions(r.Decisions(), k, 10*time.Second)
		if len(all[i]) != k {
			t.Fatalf("replica %d decided %d/%d with batching", i, len(all[i]), k)
		}
	}
	checkAgreement(t, all)
}

// TestAggregatedFewerMessages pins the point of the subsystem: per decision,
// certificate relay costs fewer messages than all-to-all counted voting.
func TestAggregatedFewerMessages(t *testing.T) {
	const n, k = 7, 10
	run := func(agg bool) int64 {
		var net *network.Network
		var reps []*Replica
		if agg {
			net, reps = aggCluster(t, n, false)
		} else {
			net, reps = cluster(t, n)
		}
		// Warm up one decision so timers and gossip settle, then measure.
		v, d := val(10000)
		reps[0].Submit(v, d)
		for _, r := range reps {
			if len(consensus.WaitDecisions(r.Decisions(), 1, 5*time.Second)) != 1 {
				t.Fatal("warm-up decision missing")
			}
		}
		net.ResetStats()
		for i := 0; i < k; i++ {
			v, d := val(i)
			reps[0].Submit(v, d)
		}
		for _, r := range reps {
			if got := consensus.WaitDecisions(r.Decisions(), k, 10*time.Second); len(got) != k {
				t.Fatalf("decided %d/%d (agg=%v)", len(got), k, agg)
			}
		}
		return net.StatsSnapshot().Sent
	}
	counted := run(false)
	aggregated := run(true)
	if aggregated >= counted {
		t.Fatalf("aggregate mode sent %d messages, counted mode %d — expected fewer", aggregated, counted)
	}
	t.Logf("n=%d k=%d: counted=%d aggregated=%d msgs", n, k, counted, aggregated)
}

// TestAggregatedViewChange kills the view-0 primary under aggregate mode:
// the cluster must still rotate views and decide, proving the prepared flag
// feeds view-change certificate collection.
func TestAggregatedViewChange(t *testing.T) {
	_, reps := aggCluster(t, 4, false)
	reps[0].Stop()
	for i := 0; i < 5; i++ {
		v, d := val(i)
		reps[1].Submit(v, d)
	}
	all := make([][]consensus.Decision, 0, 3)
	for _, r := range reps[1:] {
		ds := consensus.WaitDecisions(r.Decisions(), 5, 10*time.Second)
		if len(ds) != 5 {
			t.Fatalf("replica %v decided %d/5 after primary crash in aggregate mode", r.ID(), len(ds))
		}
		all = append(all, ds)
	}
	checkAgreement(t, all)
}

// TestAggregatedUnsignedMode runs aggregate mode under DisableSig:
// certificates degrade to signer bitmaps but the flow is unchanged.
func TestAggregatedUnsignedMode(t *testing.T) {
	net := network.New()
	nodes := []types.NodeID{0, 1, 2, 3}
	keys := crypto.NewKeyring(4)
	reps := make([]*Replica, 4)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 150 * time.Millisecond, DisableSig: true, AggregateVotes: true,
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
	v, d := val(1)
	reps[0].Submit(v, d)
	for i, r := range reps {
		if got := consensus.WaitDecisions(r.Decisions(), 1, 5*time.Second); len(got) != 1 {
			t.Fatalf("replica %d decided %d/1 in unsigned aggregate mode", i, len(got))
		}
	}
}

// attestedCluster starts n replicas on trusted hardware: every node is
// marked non-equivocating on the transport and the quorum drops to
// n/2+1 (f+1 of 2f+1), AHL's committee-size reduction.
func attestedCluster(t *testing.T, n int) (*network.Network, []*Replica) {
	t.Helper()
	net := network.New()
	keys := crypto.NewKeyring(n)
	nodes := make([]types.NodeID, n)
	for i := range nodes {
		nodes[i] = types.NodeID(i)
		net.Attest(nodes[i])
	}
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = New(consensus.Config{
			Self: types.NodeID(i), Nodes: nodes, Net: net, Keys: keys,
			Timeout: 200 * time.Millisecond, ByzQuorumOverride: n/2 + 1,
		})
		reps[i].Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return net, reps
}

func TestAttestedSmallCommitteeDecides(t *testing.T) {
	// 3 nodes (2f+1, f=1) with attestation: still decides, and the
	// network refuses Byzantine filters on its nodes.
	net, reps := attestedCluster(t, 3)
	v, d := val(1)
	reps[0].Submit(v, d)
	if got := consensus.WaitDecisions(reps[0].Decisions(), 1, 5*time.Second); len(got) != 1 || got[0].Digest != d {
		t.Fatalf("got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("filter on attested node did not panic")
		}
	}()
	net.SetFilter(0, func(m network.Message) []network.Message { return []network.Message{m} })
}

func TestAttestedToleratesOneCrash(t *testing.T) {
	// 2f+1 = 3 nodes, f = 1: quorum f+1 = 2 must survive one crash.
	net, reps := attestedCluster(t, 3)
	net.Partition([]types.NodeID{2})
	v, d := val(1)
	reps[0].Submit(v, d)
	if got := consensus.WaitDecisions(reps[0].Decisions(), 1, 10*time.Second); len(got) != 1 {
		t.Fatal("attested committee with one crash did not decide")
	}
}
