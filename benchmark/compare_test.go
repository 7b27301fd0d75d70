package main

import (
	"io"
	"testing"
)

func resultsWith(peak, p50 float64, failed int) *results {
	r := &runResult{Workload: workloads[0].name, Failed: failed, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = value{Value: 100, Unit: d.Unit}
	}
	r.Metrics["peak_tps"] = value{Value: peak}
	r.Metrics["commit_p50_ms"] = value{Value: p50}
	traced := &runResult{Workload: workloads[0].name, Trace: true, Metrics: map[string]value{}}
	return &results{EndToEnd: endToEnd, Runs: []*runResult{traced, r}}
}

func bound(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	panic(name)
}

func TestCompare(t *testing.T) {
	parent := resultsWith(10000, 10, 0)
	within := 1 - bound("peak_tps")/2
	beyond := 1 - bound("peak_tps")*1.5
	cases := []struct {
		name   string
		change *results
		want   int
	}{
		{"identical", resultsWith(10000, 10, 0), 0},
		{"higher-is-better metric drops within its bound", resultsWith(10000*within, 10, 0), 0},
		{"higher-is-better metric drops beyond its bound", resultsWith(10000*beyond, 10, 0), 1},
		{"an improvement of any size", resultsWith(30000, 2, 0), 0},
		{"lower-is-better metric rises beyond its bound", resultsWith(10000, 10*(1+bound("commit_p50_ms")*1.5), 0), 1},
		{"failed count rose", resultsWith(10000, 10, 3), 1},
		{"both", resultsWith(10000*beyond, 10, 3), 2},
	}
	for _, c := range cases {
		if got := compareResults(parent, c.change, io.Discard); got != c.want {
			t.Errorf("%s: %d regressions, want %d", c.name, got, c.want)
		}
	}
}
