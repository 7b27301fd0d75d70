// Package chaos is a deterministic, seeded fault-injection harness for the
// six consensus protocols (and anything else speaking consensus.Replica).
// A run executes a scripted schedule of fault events — crash-stop,
// crash-recovery, leader kill, partition/heal, latency spikes, drop-rate
// bursts, Byzantine equivocation — against a cluster on one simulated
// network, while checkers assert the two properties the paper's protocol
// claims rest on (§2.2, §2.3.3):
//
//   - safety: no two replicas ever commit different digests at the same
//     sequence number, checked across every incarnation's full decision log;
//   - liveness: commits resume within a bounded number of timeouts after
//     the last fault heals, verified by an end-of-run probe.
//
// Runs with the same seed and schedule are reproducible: the network's
// random loss is seeded, and schedules quiesce with Await barriers rather
// than wall-clock sleeps wherever determinism matters.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"permchain/internal/consensus"
	"permchain/internal/consensus/hotstuff"
	"permchain/internal/consensus/ibft"
	"permchain/internal/consensus/paxos"
	"permchain/internal/consensus/pbft"
	"permchain/internal/consensus/raft"
	"permchain/internal/consensus/tendermint"
	"permchain/internal/network"
	"permchain/internal/obs"
	"permchain/internal/store"
)

// Protocol describes one consensus protocol the harness can run.
type Protocol struct {
	Name string
	// ByzFault marks BFT protocols; Byzantine events (Equivocate) are
	// rejected for CFT protocols, whose fault model they violate.
	ByzFault bool
	// MinN is the smallest cluster that stays live with one faulty node.
	// HotStuff needs n >= 5: with round-robin rotation a silent replica
	// occupies every fourth leader slot of an n = 4 cluster, and a commit
	// needs four consecutive correct slots.
	MinN int
	New  func(cfg consensus.Config) consensus.Replica
}

// Protocols returns the registry of all six protocols.
func Protocols() []Protocol {
	return []Protocol{
		{Name: "pbft", ByzFault: true, MinN: 4,
			New: func(cfg consensus.Config) consensus.Replica { return pbft.New(cfg) }},
		{Name: "raft", ByzFault: false, MinN: 3,
			New: func(cfg consensus.Config) consensus.Replica { return raft.New(cfg) }},
		{Name: "paxos", ByzFault: false, MinN: 3,
			New: func(cfg consensus.Config) consensus.Replica { return paxos.New(cfg) }},
		{Name: "tendermint", ByzFault: true, MinN: 4,
			New: func(cfg consensus.Config) consensus.Replica { return tendermint.New(tendermint.Config{Config: cfg}) }},
		{Name: "hotstuff", ByzFault: true, MinN: 5,
			New: func(cfg consensus.Config) consensus.Replica { return hotstuff.New(cfg) }},
		{Name: "ibft", ByzFault: true, MinN: 4,
			New: func(cfg consensus.Config) consensus.Replica { return ibft.New(cfg) }},
	}
}

// ProtocolByName looks a protocol up in the registry.
func ProtocolByName(name string) (Protocol, bool) {
	for _, p := range Protocols() {
		if p.Name == name {
			return p, true
		}
	}
	return Protocol{}, false
}

// Config parameterizes one chaos run.
type Config struct {
	Protocol Protocol
	// N is the cluster size; zero selects Protocol.MinN.
	N int
	// Seed drives the network's random loss; same seed + same schedule =
	// same run (see the determinism test).
	Seed int64
	// Timeout is the consensus failure-detection timeout; zero selects the
	// protocol default (200ms).
	Timeout    time.Duration
	DisableSig bool
	// Schedule is the fault script, executed in order.
	Schedule []Event
	// SubmitVia is the preferred replica for submissions. If it is
	// crashed or stranded in a minority partition, the lowest-id live
	// replica of the largest partition group is used instead.
	SubmitVia int
	// AwaitTimeout bounds each Await barrier; zero selects 30s.
	AwaitTimeout time.Duration
	// LivenessTimeouts bounds the end-of-run probe: commits must resume
	// within this many consensus timeouts after the last fault heals.
	// Zero selects 100.
	LivenessTimeouts int
	// SkipProbe disables the end-of-run liveness probe (LivenessOK is then
	// reported true vacuously). Schedules that deliberately leave the
	// cluster without quorum use it.
	SkipProbe bool
	// Dir, when non-empty, attaches the durable storage engine: every node
	// appends its decisions to a segmented write-ahead log under
	// Dir/node-<i>, and FullRestart events recover the whole cluster from
	// those logs instead of from peers.
	Dir string
	// Fsync is the decision logs' durability policy. The default,
	// FsyncAlways, is deliberate: a harness that loses acknowledged
	// decisions to a buffered tail would report phantom safety violations.
	Fsync store.FsyncPolicy
}

func (c Config) defaulted() Config {
	if c.N == 0 {
		c.N = c.Protocol.MinN
	}
	if c.Timeout == 0 {
		c.Timeout = 200 * time.Millisecond
	}
	if c.AwaitTimeout == 0 {
		c.AwaitTimeout = 30 * time.Second
	}
	if c.LivenessTimeouts == 0 {
		c.LivenessTimeouts = 100
	}
	return c
}

// Report is the per-run outcome.
type Report struct {
	Protocol string
	N        int
	Seed     int64
	// Faults lists every injected event, in order, as human-readable lines.
	Faults []string
	// Submitted counts workload values handed to the cluster, including
	// the liveness probe.
	Submitted int
	// DecisionsBefore/During/After split the highest decided sequence
	// number at the first fault, at the end of the schedule, and after the
	// liveness probe.
	DecisionsBefore int
	DecisionsDuring int
	DecisionsAfter  int
	// RecoveryLatency is how long the post-heal liveness probe took to be
	// decided by every live replica.
	RecoveryLatency time.Duration
	// DiskReplayed counts decisions recovered from durable logs by
	// FullRestart events — the disk-replay recovery source, as opposed to
	// the peer state-transfer fetches RecoveryFetches sums.
	DiskReplayed int
	// SafetyViolations lists every (seq, digest) divergence found across
	// all incarnation logs; empty means safety held.
	SafetyViolations []string
	// Failures lists Await barriers or schedule steps that did not
	// complete; empty means the schedule ran to the end.
	Failures []string
	// LivenessOK reports whether the probe committed within the bound.
	LivenessOK bool
	// Stats is the network's final counter snapshot, drops by cause.
	Stats network.Stats
	// Metrics is the run's full observability snapshot: the protocol's
	// commit-latency histogram and counters, the network's per-cause drop
	// counters and delivery-latency histogram, and the runner's
	// chaos/commit_latency/{before,during,after} split, which shows how
	// commit latency degrades under faults and recovers after the heal.
	Metrics obs.Snapshot

	logs [][][]consensus.Decision
}

// RecoveryFetches sums every state-transfer fetch counter in the metrics
// snapshot (pbft/fetches, paxos/sync_fetches, ...): how many times lagging
// or recovering replicas had to pull decided values from their peers.
func (r *Report) RecoveryFetches() int64 {
	var total int64
	for name, v := range r.Metrics.Counters {
		if strings.HasSuffix(name, "fetches") {
			total += v
		}
	}
	return total
}

// Logs returns every incarnation's decision log, indexed
// [node][incarnation][slot]. The determinism test diffs two of these.
func (r *Report) Logs() [][][]consensus.Decision { return r.logs }

// Ok reports whether the run passed every checker. A codec drop fails
// the run: it is a payload the transport cannot serialize, a bug that
// no schedule injects.
func (r *Report) Ok() bool {
	return len(r.SafetyViolations) == 0 && len(r.Failures) == 0 && r.LivenessOK &&
		r.Stats.ByCause[network.DropCodec] == 0
}

// String renders the report as a compact multi-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s n=%d seed=%d: ", r.Protocol, r.N, r.Seed)
	if r.Ok() {
		b.WriteString("OK")
	} else {
		b.WriteString("FAIL")
	}
	fmt.Fprintf(&b, "\n  faults: %s", strings.Join(r.Faults, "; "))
	fmt.Fprintf(&b, "\n  decisions: %d before, %d during, %d after faults (submitted %d)",
		r.DecisionsBefore, r.DecisionsDuring, r.DecisionsAfter, r.Submitted)
	fmt.Fprintf(&b, "\n  recovery latency: %v, liveness ok: %v", r.RecoveryLatency, r.LivenessOK)
	fmt.Fprintf(&b, "\n  drops: rate=%d partition=%d crash=%d overflow=%d unknown=%d admission=%d codec=%d",
		r.Stats.ByCause[network.DropRate], r.Stats.ByCause[network.DropPartition],
		r.Stats.ByCause[network.DropCrash], r.Stats.ByCause[network.DropOverflow],
		r.Stats.ByCause[network.DropUnknown], r.Stats.ByCause[network.DropAdmission],
		r.Stats.ByCause[network.DropCodec])
	for _, phase := range []string{"before", "during", "after"} {
		if hs, ok := r.Metrics.Histograms["chaos/commit_latency/"+phase]; ok {
			fmt.Fprintf(&b, "\n  commit latency %s faults: %s", phase, hs.DurString())
		}
	}
	if f := r.RecoveryFetches(); f > 0 || r.DiskReplayed > 0 {
		fmt.Fprintf(&b, "\n  recovery source: disk-replayed=%d, state-transfer fetches=%d", r.DiskReplayed, f)
	}
	for _, v := range r.SafetyViolations {
		fmt.Fprintf(&b, "\n  SAFETY: %s", v)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  FAILURE: %s", f)
	}
	return b.String()
}
