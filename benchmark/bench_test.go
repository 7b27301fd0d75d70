package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json and the tables the program reports from must name the
// same workloads and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// The smoke run: every workload, both runs, short phases. It asserts the
// correctness checks pass and that exactly the named metrics come out.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four chains for several seconds each")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			run  func(workload, int64, float64, string) (*runResult, error)
			defs []metricDef
		}{{"untraced", runMeasured, endToEnd}, {"traced", runTraced, perLayer}} {
			r, err := mode.run(w, 1, 3, out)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			r.finish(mode.defs)
			if !r.Correct {
				t.Errorf("%s %s: correctness checks failed: %v", w.name, mode.name, r.Errors)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s %s: attempted %d failed %d", w.name, mode.name, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(mode.defs) {
				t.Errorf("%s %s: %d metrics emitted, %d named", w.name, mode.name, len(r.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s %s: metric %s missing or in unit %q, want %q", w.name, mode.name, d.Name, v.Unit, d.Unit)
				}
			}
			if mode.name == "untraced" {
				for _, d := range endToEnd {
					if r.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, r.Metrics[d.Name].Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
}
