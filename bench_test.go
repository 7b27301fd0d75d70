package permchain

// One benchmark per experiment in DESIGN.md's index: running
// `go test -bench=. -benchmem` regenerates every table/figure claim the
// paper makes. The printed tables are the artifact; ns/op measures one
// full experiment execution.

import (
	"testing"
	"time"

	"permchain/internal/bench"
)

func runExperiment(b *testing.B, fn func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.String())
		}
	}
}

// BenchmarkE1_Figure1_FiveNodeReplication regenerates Figure 1: five
// nodes, each with an identical copy of the hash-chained ledger.
func BenchmarkE1_Figure1_FiveNodeReplication(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E1Figure1(100) })
}

// BenchmarkE2_Architectures_ContentionSweep regenerates the §2.3.3
// Discussion comparison of OX vs OXII vs XOV across contention levels.
func BenchmarkE2_Architectures_ContentionSweep(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E2Architectures(2000, 100, 100) })
}

// BenchmarkE3_FabricFamily regenerates the Fabric optimization family
// comparison (FastFabric, Fabric++, FabricSharp, XOX).
func BenchmarkE3_FabricFamily(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E3FabricFamily(2000, 100, 100) })
}

// BenchmarkE4_Confidentiality regenerates the §2.3.1 Discussion
// comparison of Caper views, Fabric channels, and private data
// collections.
func BenchmarkE4_Confidentiality(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E4Confidentiality(60, 20) })
}

// BenchmarkE5_Verifiability regenerates the §2.3.2 Discussion comparison
// of zero-knowledge proofs vs anonymous tokens.
func BenchmarkE5_Verifiability(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E5Verifiability(10, 50) })
}

// BenchmarkE6_ShardingScaling regenerates the §2.3.4 Discussion scaling
// comparison: single-ledger vs sharded designs across cluster counts and
// cross-shard fractions.
func BenchmarkE6_ShardingScaling(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) {
		return bench.E6ShardingScaling(50, []int{2, 4}, []float64{0, 0.1})
	})
}

// BenchmarkE7_CrossShardLatency regenerates the cross-shard latency
// comparison of coordinator-based, flattened, and hierarchical designs.
func BenchmarkE7_CrossShardLatency(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) {
		return bench.E7CrossShardLatency(3, 10*time.Millisecond)
	})
}

// BenchmarkE8_ConsensusProtocols regenerates the consensus substrate
// comparison: throughput and message complexity of all six protocols.
func BenchmarkE8_ConsensusProtocols(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E8ConsensusProtocols(100, 4) })
}

// BenchmarkE9_Ablations regenerates the design-choice ablations: batching,
// message authentication, and attested committee size.
func BenchmarkE9_Ablations(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E9Ablations(300) })
}

// BenchmarkE10_Chaos regenerates the chaos matrix at quick scale: every
// protocol under crash-recovery, partition-heal and full-restart faults.
func BenchmarkE10_Chaos(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E10Chaos(true) })
}

// BenchmarkE11_Durability regenerates the durability comparison: fsync
// policy vs throughput and snapshot interval vs recovery time.
func BenchmarkE11_Durability(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E11Durability(true) })
}

// BenchmarkE12_Pipeline regenerates the commit-pipeline table: the
// pipelined commit path under forced fsync and periodic snapshots.
func BenchmarkE12_Pipeline(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E12Pipeline(true) })
}

// BenchmarkE13_WorldState regenerates the world-state comparison:
// incremental bucket-tree hashing vs the seed full rescan, and parallel
// OXII execution scaling on the lock-striped store.
func BenchmarkE13_WorldState(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E13WorldState(true) })
}

// BenchmarkE15_QuorumScaling regenerates the vote-aggregation scaling
// comparison: msgs/commit and latency for counted vs aggregated BFT vote
// phases as the cluster grows toward 64 replicas.
func BenchmarkE15_QuorumScaling(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E15QuorumScaling(true) })
}

// BenchmarkE16_HorizontalScaling regenerates the sharded capstone:
// aggregate throughput vs shard count × cross-shard ratio on the unified
// Shards API, plus the crash-recovery atomicity audit.
func BenchmarkE16_HorizontalScaling(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E16HorizontalScaling(true) })
}

// BenchmarkE17_WireCodec regenerates the zero-copy codec profile: frame
// cost and allocs/op per payload, serialized bytes/msg per protocol,
// executor allocs/tx, and struct-vs-wire transport throughput.
func BenchmarkE17_WireCodec(b *testing.B) {
	runExperiment(b, func() (*bench.Table, error) { return bench.E17WireCodec(true) })
}
