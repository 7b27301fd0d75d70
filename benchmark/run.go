package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"permchain/internal/core"
	"permchain/internal/mempool"
	"permchain/internal/obs"
	"permchain/internal/types"
)

// phases splits a run's measuring time. The untraced run spends two
// thirds in the open-loop steady phase and a third in the closed-loop
// peak; the traced run's phases are half as long, followed by a short
// untraced peak (for the tracing overhead) and the layer replay.
type phases struct{ steady, peak time.Duration }

func measuredPhases(seconds float64) phases {
	d := time.Duration(seconds * float64(time.Second))
	return phases{steady: d * 2 / 3, peak: d / 3}
}

func tracedPhases(seconds float64) phases {
	d := time.Duration(seconds * float64(time.Second))
	return phases{steady: d / 3, peak: d / 6}
}

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Findings  []string         `json:"findings,omitempty"`
	Errors    []string         `json:"errors,omitempty"`
}

func (r *runResult) set(name string, v float64, n int) {
	r.Metrics[name] = value{Value: v, N: n}
}

func (r *runResult) errorf(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// env is one run's surroundings: the workload, its generator and a
// scratch directory that holds every store the run opens.
type env struct {
	w       workload
	gen     *generator
	scratch string
	dirs    int
	wantSum int64 // what committed transactions added to the counters
}

func newEnv(w workload, seed int64, outDir string) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	return &env{w: w, gen: newGenerator(w.mix, seed), scratch: scratch}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.scratch) }

func (e *env) load(s *system, phase string, rec *recorder) load {
	l := load{
		submit: s.submit,
		next:   func() *types.Transaction { return e.gen.next(phase) },
		isShed: mempool.IsReject,
		rec:    rec,
		wait:   settleWait,
	}
	if e.w.mix.shards > 0 {
		l.isCross = isCrossShard
	}
	return l
}

// isCrossShard compares the "s<N>/" prefixes of a transfer's two keys.
func isCrossShard(tx *types.Transaction) bool {
	a, b := tx.Ops[0].Key, tx.Ops[1].Key
	return a[:3] != b[:3]
}

// setup builds a fresh deployment in its own directory, starts it and
// settles the warm-up transactions (which absorbs Raft's first election).
// It returns the system and how long that took.
func (e *env) setup(o *obs.Obs) (*system, time.Duration, error) {
	start := time.Now()
	e.dirs++
	dir := filepath.Join(e.scratch, fmt.Sprintf("store-%d", e.dirs))
	s, err := newSystem(chainConfig(e.w, dir, o))
	if err != nil {
		return nil, 0, err
	}
	res := burst(e.load(s, "warm", nil), warmupTxs)
	took := res.drained.Sub(start)
	if n := res.shed + res.submitErrs + res.failed + res.unsettled; n > 0 {
		s.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d transactions did not settle", n, warmupTxs)
	}
	e.wantSum = int64(res.committed) * e.w.mix.addedPerTx()
	return s, took, nil
}

// tally folds a phase into the run's attempted/failed counts. An XOV MVCC
// abort is a defined outcome of that architecture, reported through
// committed_share and arch.xov.abort_share; anywhere else an abort is a
// failure, as is anything shed, refused, failed or left unsettled.
func (e *env) tally(r *runResult, res *loadResult) {
	r.Attempted += res.offered
	r.Failed += res.shed + res.submitErrs + res.failed + res.unsettled
	if e.w.arch != core.XOV {
		r.Failed += res.aborted
	}
	e.wantSum += int64(res.committed) * e.w.mix.addedPerTx()
}

// runMeasured is the untraced run: every end-to-end metric comes from it.
func runMeasured(w workload, seed int64, seconds float64, outDir string) (*runResult, error) {
	r := &runResult{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]value{}}
	e, err := newEnv(w, seed, outDir)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	ph := measuredPhases(seconds)

	var s *system
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if s != nil {
			s.close()
		}
		var took time.Duration
		if s, took, err = e.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { s.close() }()
	r.set("setup_s", quantile(setups, 0.5), len(setups))

	// Steady: open loop at the workload's fixed rate.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n0 := s.netTotals()
	d0, err := s.diskBytes()
	if err != nil {
		return nil, err
	}
	steady := openLoop(e.load(s, "steady", nil), w.steadyRate, ph.steady)
	runtime.ReadMemStats(&m1)
	n1 := s.netTotals()
	d1, err := s.diskBytes()
	if err != nil {
		return nil, err
	}
	e.tally(r, steady)
	settled := float64(steady.committed + steady.aborted + steady.failed)
	r.set("commit_p50_ms", quantile(steady.latMs, 0.50), len(steady.latMs))
	r.set("commit_p75_ms", quantile(steady.latMs, 0.75), len(steady.latMs))
	r.set("allocs_per_tx", ratio(float64(m1.Mallocs-m0.Mallocs), settled), int(settled))
	r.set("wire_bytes_per_tx", ratio(float64(n1.wireBytes-n0.wireBytes), settled), int(settled))
	r.set("msgs_per_tx", ratio(float64(n1.sent-n0.sent), settled), int(settled))
	r.set("disk_bytes_per_tx", ratio(float64(d1-d0), settled), int(settled))
	if lag := steady.genLagMax; lag > 100*time.Millisecond {
		r.Findings = append(r.Findings, fmt.Sprintf("generator ran %v late in the steady phase: the generator, not the system, was measured", lag))
	}

	// Peak: closed loop. Only receipts committed inside the phase count,
	// so aborting or failing more cannot look faster.
	peak := closedLoop(e.load(s, "peak", nil), peakClients, ph.peak)
	e.tally(r, peak)
	r.set("peak_tps", peak.tps(), peak.onTime)
	r.set("committed_share", ratio(float64(steady.committed+peak.committed), float64(steady.offered+peak.offered)),
		steady.offered+peak.offered)

	if err := s.verify(e.wantSum, e.gen); err != nil {
		r.errorf("after peak: %v", err)
	}
	if n := s.netTotals(); n.drops != 0 {
		r.errorf("transport dropped %d messages", n.drops)
	}

	// Recover: kill -9, reopen the same directory, settle one new tx.
	start := time.Now()
	if err := s.crashAndReopen(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	if err := s.checkRecovered(); err != nil {
		r.errorf("recover: %v", err)
	}
	if err := s.submitAndWait(e.gen.next("recover")); err != nil {
		r.errorf("recover: %v", err)
	} else {
		e.wantSum += w.mix.addedPerTx()
	}
	r.set("recovery_s", time.Since(start).Seconds(), 1)
	if err := s.verify(e.wantSum, e.gen); err != nil {
		r.errorf("after recovery: %v", err)
	}
	if r.Failed > 0 {
		r.errorf("%d of %d transactions failed", r.Failed, r.Attempted)
	}
	return r, nil
}

// finish gives every metric in defs its unit and reports any that the run
// did not produce.
func (r *runResult) finish(defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			r.errorf("metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
	}
}

// print lists the run's metrics in the order of defs.
func (r *runResult) print(defs []metricDef) {
	fmt.Printf("== %s seed=%d trace=%v (injected message delay %v: latency is processor + fsync time, not network time)\n",
		r.Workload, r.Seed, r.Trace, injectedDelay)
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Printf("  %-40s %14.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.N)
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Findings {
		fmt.Printf("  finding: %s\n", f)
	}
	sort.Strings(r.Errors)
	for _, e := range r.Errors {
		fmt.Printf("  ERROR: %s\n", e)
	}
}
