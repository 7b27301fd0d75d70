package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the chain sees, from the untraced run. The
// bounds are three times the spread measured on the recording host, or
// wider (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"commit_p50_ms", "ms", lower, 0.25},
	{"commit_p75_ms", "ms", lower, 0.25},
	{"peak_tps", "tx/s", higher, 0.25},
	{"allocs_per_tx", "allocs", lower, 0.05},
	{"wire_bytes_per_tx", "B", lower, 0.15},
	{"msgs_per_tx", "msgs", lower, 0.08},
	{"disk_bytes_per_tx", "B", lower, 0.05},
	{"recovery_s", "s", lower, 0.25},
	{"committed_share", "ratio", higher, 0.02},
}

// perLayer is what the traced run and the layer replay attribute to
// single modules. A metric that does not apply to a workload (sharding.*
// on one chain, arch.xov.* under OX) reads 0 there.
var perLayer = []metricDef{
	{Name: "client.submit_call_us_p50", Unit: "us", Better: lower},
	{Name: "client.gen_lag_ms_max", Unit: "ms", Better: lower},
	{Name: "client.commit_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.commit_p95_ms", Unit: "ms", Better: lower},
	{Name: "client.commit_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.commit_max_ms", Unit: "ms", Better: lower},
	{Name: "client.peak_p50_ms", Unit: "ms", Better: lower},
	{Name: "client.peak_tps", Unit: "tx/s", Better: higher},

	{Name: "mempool.batch_wait_ms", Unit: "ms", Better: lower},
	{Name: "mempool.batch_size_mean", Unit: "txs", Better: higher},
	{Name: "mempool.occupancy_max", Unit: "txs", Better: lower},
	{Name: "mempool.shed_share", Unit: "ratio", Better: lower},
	{Name: "mempool.admit_ns_per_tx", Unit: "ns", Better: lower},

	{Name: "consensus.order_ms", Unit: "ms", Better: lower},
	{Name: "consensus.msgs_per_block", Unit: "msgs", Better: lower},
	{Name: "consensus.view_changes", Unit: "count", Better: lower},
	{Name: "consensus.fetches", Unit: "count", Better: lower},
	{Name: "consensus.order_only_us_p50", Unit: "us", Better: lower},
	{Name: "consensus.order_only_blocks_per_s", Unit: "1/s", Better: higher},

	{Name: "crypto.sign_us", Unit: "us", Better: lower},
	{Name: "crypto.verify_us", Unit: "us", Better: lower},
	{Name: "crypto.merkle_root_us_per_block", Unit: "us", Better: lower},

	{Name: "network.bytes_per_msg", Unit: "B", Better: lower},
	{Name: "network.encode_us", Unit: "us", Better: lower},
	{Name: "network.decode_us", Unit: "us", Better: lower},
	{Name: "network.delivery_ms", Unit: "ms", Better: lower},
	{Name: "network.drops", Unit: "count", Better: lower},

	{Name: "wire.tx_frame_bytes", Unit: "B", Better: lower},
	{Name: "wire.tx_encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.tx_decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.tx_decode_allocs", Unit: "allocs", Better: lower},

	{Name: "arch.execute_us_per_block", Unit: "us", Better: lower},
	{Name: "arch.replay_execute_ns_per_tx", Unit: "ns", Better: lower},
	{Name: "arch.replay_allocs_per_tx", Unit: "allocs", Better: lower},
	{Name: "arch.oxii.graph_build_us", Unit: "us", Better: lower},
	{Name: "arch.xov.endorse_us", Unit: "us", Better: lower},
	{Name: "arch.xov.validate_us", Unit: "us", Better: lower},
	{Name: "arch.xov.abort_share", Unit: "ratio", Better: lower},

	{Name: "statedb.get_ns", Unit: "ns", Better: lower},
	{Name: "statedb.apply_ns_per_write", Unit: "ns", Better: lower},
	{Name: "statedb.state_hash_us_per_block", Unit: "us", Better: lower},
	{Name: "statedb.capture_us", Unit: "us", Better: lower},
	{Name: "statedb.keys", Unit: "count", Better: lower},

	{Name: "ledger.new_block_us", Unit: "us", Better: lower},
	{Name: "ledger.append_us", Unit: "us", Better: lower},

	{Name: "store.append_us", Unit: "us", Better: lower},
	{Name: "store.fsync_us", Unit: "us", Better: lower},
	{Name: "store.fsyncs_per_block", Unit: "count", Better: lower},
	{Name: "store.bytes_per_tx", Unit: "B", Better: lower},
	{Name: "store.snapshot_ms", Unit: "ms", Better: lower},
	{Name: "store.encode_block_ns_per_tx", Unit: "ns", Better: lower},
	{Name: "store.replay_append_us_per_block", Unit: "us", Better: lower},
	{Name: "store.open_ms", Unit: "ms", Better: lower},

	{Name: "core.submit_to_apply_ms", Unit: "ms", Better: lower},
	{Name: "core.apply_to_receipt_ms", Unit: "ms", Better: lower},
	{Name: "core.apply_queue_depth_max", Unit: "blocks", Better: lower},
	{Name: "core.unattributed_ms", Unit: "ms", Better: lower},

	{Name: "sharding.intra_p50_ms", Unit: "ms", Better: lower},
	{Name: "sharding.cross_p50_ms", Unit: "ms", Better: lower},
	{Name: "sharding.cross_p95_ms", Unit: "ms", Better: lower},
	{Name: "sharding.cross_aborted_share", Unit: "ratio", Better: lower},
	{Name: "sharding.decision_records_per_cross_tx", Unit: "count", Better: lower},
	{Name: "sharding.blocks_per_tx", Unit: "blocks", Better: lower},
	{Name: "sharding.locks_leaked", Unit: "count", Better: lower},
	{Name: "sharding.lock_acquire_ns", Unit: "ns", Better: lower},

	{Name: "replay.order_us_per_block", Unit: "us", Better: lower},
	{Name: "replay.commit_us_per_block", Unit: "us", Better: lower},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},

	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.gc_pause_ms_max", Unit: "ms", Better: lower},
	{Name: "runtime.heap_mb_max", Unit: "MB", Better: lower},
	{Name: "runtime.goroutines_max", Unit: "count", Better: lower},
}

// value is one reported number. N is the sample count behind a timing;
// it is printed and kept in results.json but not in the driver's line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// quantile returns the q-quantile of xs by nearest rank, or 0 for an empty
// sample. xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
