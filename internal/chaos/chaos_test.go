package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"permchain/internal/network"
	"permchain/internal/types"
)

func proto(t *testing.T, name string) Protocol {
	t.Helper()
	p, ok := ProtocolByName(name)
	if !ok {
		t.Fatalf("unknown protocol %q", name)
	}
	return p
}

// TestCodecDropFailsReport: a payload lost at the codec is a bug, never
// an injected fault, so one codec drop fails an otherwise clean run.
func TestCodecDropFailsReport(t *testing.T) {
	rep := &Report{Protocol: "pbft", LivenessOK: true}
	if !rep.Ok() {
		t.Fatalf("clean report not Ok:\n%s", rep)
	}
	rep.Stats.ByCause[network.DropCodec] = 1
	if rep.Ok() {
		t.Fatalf("report with a codec drop is Ok:\n%s", rep)
	}
	if s := rep.String(); !strings.Contains(s, "codec=1") {
		t.Fatalf("drops line does not report the codec drop:\n%s", s)
	}
}

func TestCrashRecoveryRun(t *testing.T) {
	p := proto(t, "pbft")
	rep := Run(Config{
		Protocol: p,
		Seed:     1,
		Timeout:  150 * time.Millisecond,
		Schedule: CrashRecoverySchedule(3, 3, 3, 2),
	})
	if !rep.Ok() {
		t.Fatalf("run failed:\n%s", rep)
	}
	if rep.DecisionsBefore != 3 || rep.DecisionsDuring != 8 || rep.DecisionsAfter != 9 {
		t.Fatalf("decision frontier = %d/%d/%d, want 3/8/9\n%s",
			rep.DecisionsBefore, rep.DecisionsDuring, rep.DecisionsAfter, rep)
	}
	// The restarted incarnation replayed the full log.
	logs := rep.Logs()
	if len(logs[3]) != 2 {
		t.Fatalf("node 3 has %d incarnations, want 2", len(logs[3]))
	}
	if got := len(logs[3][1]); got != rep.Submitted {
		t.Fatalf("restarted incarnation decided %d/%d", got, rep.Submitted)
	}
}

func TestPartitionHealRun(t *testing.T) {
	p := proto(t, "raft")
	rep := Run(Config{
		Protocol: p,
		Seed:     2,
		Timeout:  100 * time.Millisecond,
		Schedule: PartitionHealSchedule(
			[]types.NodeID{2}, []types.NodeID{0, 1}, 3, 3, 2),
	})
	if !rep.Ok() {
		t.Fatalf("run failed:\n%s", rep)
	}
	// The partition must have actually cost messages.
	if rep.Stats.ByCause[network.DropPartition] == 0 && rep.Stats.Dropped == 0 {
		t.Fatalf("partition run dropped nothing:\n%s", rep)
	}
}

func TestLeaderKillRun(t *testing.T) {
	p := proto(t, "paxos")
	rep := Run(Config{
		Protocol: p,
		Seed:     3,
		Timeout:  100 * time.Millisecond,
		Schedule: LeaderKillSchedule(3, 3, 300*time.Millisecond),
	})
	if !rep.Ok() {
		t.Fatalf("run failed:\n%s", rep)
	}
	if len(rep.Faults) == 0 {
		t.Fatalf("no fault recorded for leader kill")
	}
}

func TestEquivocationRun(t *testing.T) {
	p := proto(t, "pbft")
	// Node 0 (the view-0 primary) turns Byzantine; workload is submitted
	// via a correct replica so its pending-request timer can drive the
	// view change that routes around the equivocator.
	rep := Run(Config{
		Protocol:  p,
		Seed:      4,
		Timeout:   150 * time.Millisecond,
		SubmitVia: 1,
		Schedule:  EquivocationSchedule(0, 2, 3, 2),
	})
	if !rep.Ok() {
		t.Fatalf("run failed:\n%s", rep)
	}
}

func TestEquivocateRejectedForCFT(t *testing.T) {
	p := proto(t, "raft")
	rep := Run(Config{
		Protocol:  p,
		Seed:      5,
		Schedule:  []Event{Equivocate(0)},
		SkipProbe: true,
	})
	if rep.Ok() {
		t.Fatalf("equivocation against a CFT protocol must be rejected:\n%s", rep)
	}
	if len(rep.Failures) == 0 {
		t.Fatalf("no failure recorded")
	}
}

func TestDropBurstRun(t *testing.T) {
	p := proto(t, "ibft")
	rep := Run(Config{
		Protocol: p,
		Seed:     6,
		Timeout:  150 * time.Millisecond,
		Schedule: DropBurstSchedule(0.05, 2, 3, 2, 200*time.Millisecond),
	})
	if !rep.Ok() {
		t.Fatalf("run failed:\n%s", rep)
	}
}

// deterministicSchedule submits one value per barrier so message counts do
// not depend on goroutine interleaving (batching would otherwise vary).
func deterministicSchedule() []Event {
	var sched []Event
	for i := 0; i < 4; i++ {
		sched = append(sched, Submit(1), Await())
	}
	sched = append(sched, Crash(3))
	for i := 0; i < 3; i++ {
		sched = append(sched, Submit(1), Await())
	}
	return sched
}

// TestDeterminism is the reproducibility contract: same seed + same
// schedule must yield identical decision logs (every node, every
// incarnation) and identical network drop counters across runs. The
// timeout is large enough that no protocol timer fires, so the only
// nondeterminism left would be in the harness or network — which this
// test pins down.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Protocol:  proto(t, "pbft"),
		Seed:      42,
		Timeout:   2 * time.Second,
		Schedule:  deterministicSchedule(),
		SkipProbe: true,
	}
	a := Run(cfg)
	b := Run(cfg)
	if !a.Ok() || !b.Ok() {
		t.Fatalf("runs failed:\n%s\n%s", a, b)
	}
	if !reflect.DeepEqual(a.Logs(), b.Logs()) {
		t.Fatalf("decision logs differ across identical runs:\n%s\n%s", a, b)
	}
	if a.Stats.Sent != b.Stats.Sent || a.Stats.Delivered != b.Stats.Delivered ||
		a.Stats.Dropped != b.Stats.Dropped || a.Stats.ByCause != b.Stats.ByCause {
		t.Fatalf("network stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestFullClusterRestartRecoversFromDisk(t *testing.T) {
	for _, name := range []string{"pbft", "raft"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p := proto(t, name)
			rep := Run(Config{
				Protocol: p,
				Seed:     7,
				Timeout:  150 * time.Millisecond,
				Dir:      t.TempDir(),
				Schedule: FullClusterRestartSchedule(5, 3),
			})
			if !rep.Ok() {
				t.Fatalf("run failed:\n%s", rep)
			}
			// Every node replayed the 5 warm decisions from its own disk...
			if want := 5 * rep.N; rep.DiskReplayed != want {
				t.Fatalf("disk-replayed %d decisions, want %d\n%s", rep.DiskReplayed, want, rep)
			}
			// ...and nobody needed a peer: recovery was disk-only.
			if f := rep.RecoveryFetches(); f != 0 {
				t.Fatalf("full restart used %d state-transfer fetches, want 0\n%s", f, rep)
			}
			// The cross-incarnation frontier continued past the recovered
			// prefix (5 warm + 3 post + 1 probe).
			if rep.DecisionsAfter != 9 {
				t.Fatalf("frontier = %d, want 9\n%s", rep.DecisionsAfter, rep)
			}
			// The second incarnation's log is the recovered prefix plus the
			// post-restart workload, gapless — the safety checker verified
			// digests across both incarnations.
			logs := rep.Logs()
			for node := range logs {
				if len(logs[node]) != 2 {
					t.Fatalf("node %d has %d incarnations, want 2", node, len(logs[node]))
				}
				if got := len(logs[node][1]); got != 9 {
					t.Fatalf("node %d recovered incarnation holds %d decisions, want 9", node, got)
				}
			}
			if rep.Metrics.Counters["store/replayed_records"] != int64(5*rep.N) {
				t.Fatalf("store/replayed_records = %d", rep.Metrics.Counters["store/replayed_records"])
			}
		})
	}
}

func TestFullRestartWithoutDirFails(t *testing.T) {
	p := proto(t, "raft")
	rep := Run(Config{
		Protocol: p,
		Seed:     3,
		Timeout:  100 * time.Millisecond,
		Schedule: []Event{Submit(2), Await(), FullRestart()},
	})
	if rep.Ok() {
		t.Fatal("full restart without Config.Dir passed")
	}
	found := false
	for _, f := range rep.Failures {
		if strings.Contains(f, "requires Config.Dir") {
			found = true
		}
	}
	if !found {
		t.Fatalf("failures = %v", rep.Failures)
	}
}

func TestSingleRestartStillUsesPeerFetch(t *testing.T) {
	// With durable logs attached, a single-node restart still recovers via
	// peer state transfer (its own disk is fine, but the harness restarts
	// it from empty state) — the report distinguishes the two sources.
	p := proto(t, "pbft")
	rep := Run(Config{
		Protocol: p,
		Seed:     1,
		Timeout:  150 * time.Millisecond,
		Dir:      t.TempDir(),
		Schedule: CrashRecoverySchedule(3, 3, 3, 2),
	})
	if !rep.Ok() {
		t.Fatalf("run failed:\n%s", rep)
	}
	if rep.DiskReplayed != 0 {
		t.Fatalf("single-node restart disk-replayed %d", rep.DiskReplayed)
	}
	if rep.RecoveryFetches() == 0 {
		t.Fatalf("restarted node fetched nothing from peers:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "recovery source") {
		t.Fatal("report does not render the recovery source line")
	}
}
