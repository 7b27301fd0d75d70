// Command benchmark is E18, the production-configuration benchmark: four
// named workloads against the configuration a deployment would run
// (mempool + wire-codec transport + fsync-always store, signatures on,
// pipelined commit), timed from client submit to durably settled receipt,
// with every layer measured from outside. See README.md.
//
//	bash benchmark/run.sh                      # all workloads, untraced + traced
//	bash benchmark/run.sh -workload NAME       # one workload
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The last form is the one BENCHMARK.json names: one run, whose last line
// of output is a JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same transaction stream")
	seconds := flag.Float64("seconds", 45, "measuring time of the untraced run: 2/3 steady open loop, 1/3 closed-loop peak")
	trace := flag.Int("trace", -1, "0: untraced run only, 1: traced run only (default: both)")
	outDir := flag.String("out", "benchmark/out", "directory for results.json, trace files and scratch stores")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments: parent, then change")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare PARENT.json CHANGE.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	single := *name != "" && *trace >= 0 // the form BENCHMARK.json names
	ok := true
	res := results{Env: hostEnvironment(*seed, *seconds), EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if *trace >= 0 && traced != (*trace == 1) {
				continue
			}
			run, defs := runMeasured, endToEnd
			if traced {
				run, defs = runTraced, perLayer
			}
			r, err := run(w, *seed, *seconds, *outDir)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			r.finish(defs)
			r.print(defs)
			ok = ok && r.Correct
			res.Runs = append(res.Runs, r)
			if single {
				printDriverLine(r)
			}
		}
	}
	if single {
		return // the line's "correct" carries the verdict
	}
	res.printDominance()
	if err := res.write(filepath.Join(*outDir, "results.json")); err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// printDriverLine prints the one JSON object the benchmark contract asks
// for as the last line of output.
func printDriverLine(r *runResult) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for k, v := range r.Metrics {
		line.Metrics[k] = metric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// results is what results.json holds.
type results struct {
	Env      hostInfo     `json:"env"`
	EndToEnd []metricDef  `json:"end_to_end"`
	PerLayer []metricDef  `json:"per_layer"`
	Runs     []*runResult `json:"runs"`
}

// hostInfo records what the numbers depend on besides the commit.
type hostInfo struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	SteadySeconds   float64 `json:"steady_seconds"`
	PeakSeconds     float64 `json:"peak_seconds"`
	TracedSteadySec float64 `json:"traced_steady_seconds"`
	TracedPeakSec   float64 `json:"traced_peak_seconds"`
	InjectedDelayMs float64 `json:"injected_delay_ms"`
}

func hostEnvironment(seed int64, seconds float64) hostInfo {
	m, t := measuredPhases(seconds), tracedPhases(seconds)
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds,
		SteadySeconds: m.steady.Seconds(), PeakSeconds: m.peak.Seconds(),
		TracedSteadySec: t.steady.Seconds(), TracedPeakSec: t.peak.Seconds(),
		InjectedDelayMs: float64(injectedDelay) / 1e6,
	}
}

func (res *results) write(path string) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printDominance reports, per traced workload, whether ordering or
// committing a block costs more in the layer replay: the BFT baseline
// should be ordering-bound, the heavy Raft workload commit-bound.
func (res *results) printDominance() {
	for _, r := range res.Runs {
		if !r.Trace {
			continue
		}
		order, commit := r.Metrics["replay.order_us_per_block"].Value, r.Metrics["replay.commit_us_per_block"].Value
		side := "ordering (consensus + crypto)"
		if commit > order {
			side = "committing (arch + statedb + ledger + store)"
		}
		fmt.Printf("%s: replay per block: order %.0f us, commit %.0f us -> %s does most of the work\n",
			r.Workload, order, commit, side)
	}
}
