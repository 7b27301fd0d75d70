package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"permchain/internal/core"
	"permchain/internal/obs"
	"permchain/internal/store"
	"permchain/internal/types"
)

// runTraced is the traced run: the same workload, shorter, with
// Config.Obs attached and the benchmark's own spans recorded, then a short
// untraced peak (the difference is the tracing overhead) and the layer
// replay. Every per-layer metric comes from it; no end-to-end one does.
func runTraced(w workload, seed int64, seconds float64, outDir string) (*runResult, error) {
	r := &runResult{Workload: w.name, Seed: seed, Trace: true, Correct: true, Metrics: map[string]value{}}
	e, err := newEnv(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	ph := tracedPhases(seconds)
	rec := newRecorder()

	setupStart := time.Now()
	s, _, err := e.setup(obs.New())
	if err != nil {
		return nil, err
	}
	rec.add("setup", 0, 0, setupStart, time.Now())
	base := s.chains()[0].Metrics()
	net0 := s.netTotals()

	rs := startRuntimeSampler()
	steady := openLoop(e.load(s, "steady", rec), w.steadyRate, ph.steady)
	peak := closedLoop(e.load(s, "peak", rec), peakClients, ph.peak)
	rt := rs.stop()
	e.tally(r, steady)
	e.tally(r, peak)
	if err := s.verify(e.wantSum, e.gen); err != nil {
		r.errorf("traced run: %v", err)
	}
	snap := s.chains()[0].Metrics() // Obs is shared by every shard
	net1 := s.netTotals()

	clientMetrics(r, steady, peak)
	obsMetrics(r, w, base, snap, steady, peak)
	netSent := float64(net1.sent - net0.sent)
	r.set("network.bytes_per_msg", ratio(float64(net1.wireBytes-net0.wireBytes), netSent), int(netSent))
	r.set("network.drops", float64(net1.drops), 0)
	if net1.drops != 0 {
		r.errorf("transport dropped %d messages", net1.drops)
	}
	occ, rejected := s.poolTotals()
	r.set("mempool.occupancy_max", float64(occ), 0)
	r.set("mempool.shed_share", ratio(float64(rejected), float64(steady.offered+peak.offered)), steady.offered+peak.offered)
	r.set("runtime.gc_cpu_share", rt.gcCPUShare, 0)
	r.set("runtime.gc_pause_ms_max", rt.gcPauseMaxMs, rt.samples)
	r.set("runtime.heap_mb_max", rt.heapMaxMB, rt.samples)
	r.set("runtime.goroutines_max", float64(rt.goroutinesMax), rt.samples)

	var blocks []*types.Block // node 0's ledger of the first chain, for the replay
	var totalBlocks, keys, records int
	for i, c := range s.chains() {
		bs := c.Node(0).Chain().Blocks()[1:] // [0] is genesis
		if i == 0 {
			blocks = bs
		}
		totalBlocks += len(bs)
		keys += c.Node(0).Store().Len()
		for _, b := range bs {
			for _, tx := range b.Txs {
				if strings.HasPrefix(tx.ID, "2pc/") {
					records++
				}
			}
		}
	}
	sent := float64(warmupTxs + steady.offered + peak.offered)
	r.set("statedb.keys", float64(keys), 0)
	r.set("consensus.msgs_per_block", ratio(float64(net1.sent), float64(totalBlocks)), totalBlocks)
	shardingMetrics(r, s, steady, peak, records, totalBlocks, sent)

	node0 := filepath.Join(s.cfg.Store.Dir, "node-0")
	if s.sharded != nil {
		node0 = filepath.Join(s.cfg.Store.Dir, "shard-0", "node-0")
	}
	s.close()
	var openErr error
	took := rec.timed("store.open", 0, 0, func() {
		var st *store.Store
		if st, openErr = store.Open(store.Config{Dir: node0, Fsync: store.FsyncAlways}); openErr == nil {
			openErr = st.Close()
		}
	})
	if openErr != nil {
		r.errorf("store.Open on the final directory: %v", openErr)
	}
	r.set("store.open_ms", float64(took)/1e6, 1)

	// The same closed-loop peak without Obs or spans.
	s2, _, err := e.setup(nil)
	if err != nil {
		return nil, err
	}
	bare := closedLoop(e.load(s2, "bare", nil), peakClients, ph.peak)
	e.tally(r, bare)
	if err := s2.verify(e.wantSum, e.gen); err != nil {
		r.errorf("untraced peak: %v", err)
	}
	s2.close()
	r.set("obs.trace_overhead_pct", 100*ratio(bare.tps()-peak.tps(), bare.tps()), bare.onTime)

	if err := replayLayers(r, w, blocks, rec, e.scratch); err != nil {
		r.errorf("layer replay: %v", err)
	}
	if r.Failed > 0 {
		r.errorf("%d of %d transactions failed", r.Failed, r.Attempted)
	}
	if err := writeTrace(filepath.Join(outDir, w.name+".trace.json"), w.name, seed, rec.snapshot()); err != nil {
		return nil, err
	}
	return r, nil
}

func clientMetrics(r *runResult, steady, peak *loadResult) {
	r.set("client.submit_call_us_p50", quantile(steady.submitUs, 0.5), len(steady.submitUs))
	r.set("client.gen_lag_ms_max", float64(steady.genLagMax)/1e6, steady.offered)
	r.set("client.commit_p50_ms", quantile(steady.latMs, 0.50), len(steady.latMs))
	r.set("client.commit_p95_ms", quantile(steady.latMs, 0.95), len(steady.latMs))
	r.set("client.commit_p99_ms", quantile(steady.latMs, 0.99), len(steady.latMs))
	r.set("client.commit_max_ms", quantile(steady.latMs, 1), len(steady.latMs))
	r.set("client.peak_p50_ms", quantile(peak.latMs, 0.5), len(peak.latMs))
	r.set("client.peak_tps", peak.tps(), peak.onTime)
}

// obsMetrics reads the instruments the program already exports, as they
// moved between base (taken after warm-up, which under Raft waits out an
// election) and snap. Obs histograms are log2-bucketed, so a p50 read from
// one is quantised to a power of two and moves only when something
// doubles; every timing here is the histogram's exact mean instead, and
// means add where quantiles do not.
func obsMetrics(r *runResult, w workload, base, snap obs.Snapshot, steady, peak *loadResult) {
	samples := func(hist string) float64 {
		return float64(snap.Histograms[hist].Count - base.Histograms[hist].Count)
	}
	histMean := func(hist string, unit float64) float64 {
		return ratio(float64(snap.Histograms[hist].Sum-base.Histograms[hist].Sum), samples(hist)) / unit
	}
	avg := func(metric, hist string, unit float64) {
		r.set(metric, histMean(hist, unit), int(samples(hist)))
	}
	count := func(name string) float64 { return float64(snap.Counters[name] - base.Counters[name]) }
	const us, ms = 1e3, 1e6
	proto := w.protocol.String()

	avg("mempool.batch_wait_ms", "mempool/admit_to_handoff", ms)
	avg("mempool.batch_size_mean", "mempool/batch_size", 1)

	avg("consensus.order_ms", proto+"/commit_latency", ms)
	viewChanges := count("pbft/view_changes") + count("raft/elections")
	r.set("consensus.view_changes", viewChanges, 0)
	r.set("consensus.fetches", count(proto+"/fetches"), 0)
	if viewChanges != 0 {
		r.errorf("%v view changes or elections after warm-up", viewChanges)
	}

	avg("network.encode_us", "net/encode", us)
	avg("network.decode_us", "net/decode", us)
	avg("network.delivery_ms", "net/delivery_latency", ms)

	avg("arch.execute_us_per_block", "core/execute", us)
	avg("arch.oxii.graph_build_us", "arch/oxii/graph_build", us)
	avg("arch.xov.validate_us", "arch/xov/validate", us)
	aborted := float64(steady.aborted + peak.aborted)
	if w.arch != core.XOV {
		aborted = 0 // a 2PC abort is sharding.cross_aborted_share
	}
	settled := float64(steady.committed + steady.aborted + peak.committed + peak.aborted)
	r.set("arch.xov.abort_share", ratio(aborted, settled), int(settled))

	avg("store.append_us", "store/append_latency", us)
	avg("store.fsync_us", "store/fsync_latency", us)
	avg("store.snapshot_ms", "store/snapshot_latency", ms)
	r.set("store.fsyncs_per_block", ratio(count("store/fsyncs"), count("store/records_appended")), int(count("store/records_appended")))
	// Every node writes every block, so bytes per transaction is per node.
	r.set("store.bytes_per_tx", ratio(count("store/bytes_written"), replicas*count("core/committed_txs")), int(count("core/committed_txs")))

	avg("core.submit_to_apply_ms", "core/submit_to_apply", ms)
	// The instruments cover both traced phases, so the client's side of
	// each difference is the mean commit latency over both as well.
	commit := mean(append(append([]float64(nil), steady.latMs...), peak.latMs...))
	n := len(steady.latMs) + len(peak.latMs)
	r.set("core.apply_to_receipt_ms", commit-histMean("core/submit_to_apply", ms), n)
	r.set("core.apply_queue_depth_max", float64(snap.Histograms["core/apply_queue_len"].Max), int(snap.Histograms["core/apply_queue_len"].Count))
	attributed := histMean("mempool/admit_to_handoff", ms) + histMean(proto+"/commit_latency", ms) +
		histMean("core/execute", ms) + histMean("core/append", ms) + histMean("core/fsync", ms)
	r.set("core.unattributed_ms", commit-attributed, n)
	if commit-attributed > 0.2*commit {
		r.Findings = append(r.Findings, fmt.Sprintf(
			"core.unattributed_ms: %.2f ms of the %.2f ms mean commit latency is in no layer's instrument (batch wait + order + execute + append + fsync = %.2f ms)",
			commit-attributed, commit, attributed))
	}
}

func shardingMetrics(r *runResult, s *system, steady, peak *loadResult, records, blocks int, sent float64) {
	r.set("sharding.intra_p50_ms", quantile(steady.intraLatMs, 0.5), len(steady.intraLatMs))
	r.set("sharding.cross_p50_ms", quantile(steady.crossLatMs, 0.5), len(steady.crossLatMs))
	r.set("sharding.cross_p95_ms", quantile(steady.crossLatMs, 0.95), len(steady.crossLatMs))
	var crossDone, crossAborted float64
	locks := 0
	if s.sharded != nil {
		crossDone = float64(s.sharded.CrossCommitted())
		crossAborted = float64(s.sharded.Aborted())
		locks = s.sharded.LockCount()
	}
	r.set("sharding.cross_aborted_share", ratio(crossAborted, crossDone+crossAborted), int(crossDone+crossAborted))
	r.set("sharding.decision_records_per_cross_tx", ratio(float64(records), crossDone+crossAborted), int(crossDone+crossAborted))
	r.set("sharding.locks_leaked", float64(locks), 0)
	blocksPerTx := 0.0
	if s.sharded != nil {
		blocksPerTx = ratio(float64(blocks), sent)
	}
	r.set("sharding.blocks_per_tx", blocksPerTx, int(sent))
}

// runtimeSampler watches the Go runtime while the traced phases run.
type runtimeSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	res    runtimeStats
	gc0    [2]float64
}

type runtimeStats struct {
	gcCPUShare    float64
	gcPauseMaxMs  float64
	heapMaxMB     float64
	goroutinesMax int
	samples       int
}

var cpuClasses = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPUClasses() [2]float64 {
	s := append([]metrics.Sample(nil), cpuClasses...)
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stopCh: make(chan struct{}), gc0: readCPUClasses()}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	lastGC := m.NumGC
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stopCh:
				return
			case <-tick.C:
			}
			runtime.ReadMemStats(&m)
			rs.res.samples++
			rs.res.heapMaxMB = max(rs.res.heapMaxMB, float64(m.HeapAlloc)/(1<<20))
			rs.res.goroutinesMax = max(rs.res.goroutinesMax, runtime.NumGoroutine())
			// PauseNs is a ring of the last 256 pauses.
			for gc := max(lastGC, m.NumGC-min(m.NumGC, 256)); gc < m.NumGC; gc++ {
				rs.res.gcPauseMaxMs = max(rs.res.gcPauseMaxMs, float64(m.PauseNs[gc%256])/1e6)
			}
			lastGC = m.NumGC
		}
	}()
	return rs
}

func (rs *runtimeSampler) stop() runtimeStats {
	close(rs.stopCh)
	rs.wg.Wait()
	gc1 := readCPUClasses()
	rs.res.gcCPUShare = ratio(gc1[0]-rs.gc0[0], gc1[1]-rs.gc0[1])
	return rs.res
}
