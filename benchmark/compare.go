package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles checks a change's results.json against its parent's: an
// end-to-end metric that is worse by more than its bound, or a failed
// count that rose, is a regression. It returns the process exit code.
// The bounds are the change's own file's, which is also the parent's
// unless the benchmark itself was edited.
func compareFiles(parentPath, changePath string) int {
	parent, err := readResults(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	regressions := compareResults(parent, change, os.Stdout)
	if regressions > 0 {
		fmt.Printf("%d regressions\n", regressions)
		return 1
	}
	fmt.Println("no end-to-end metric is worse by more than its bound")
	return 0
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// untraced returns the workload's untraced run, which carries the
// end-to-end metrics.
func (res *results) untraced(workload string) *runResult {
	for _, r := range res.Runs {
		if r.Workload == workload && !r.Trace {
			return r
		}
	}
	return nil
}

// compareResults prints one row per workload and end-to-end metric and
// returns how many regressed.
func compareResults(parent, change *results, out io.Writer) int {
	regressions := 0
	for _, w := range workloads {
		p, c := parent.untraced(w.name), change.untraced(w.name)
		if p == nil || c == nil {
			continue // that file did not run the workload
		}
		if c.Failed > p.Failed {
			regressions++
			fmt.Fprintf(out, "%-20s %-18s %d -> %d REGRESSION\n", w.name, "failed", p.Failed, c.Failed)
		}
		for _, d := range change.EndToEnd {
			pv, cv := p.Metrics[d.Name].Value, c.Metrics[d.Name].Value
			worse := ratio(cv-pv, pv) // as a share of the parent's value
			if d.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(out, "%-20s %-18s %12.4f -> %12.4f %-6s %+6.1f%% worse (bound %.0f%%) %s\n",
				w.name, d.Name, pv, cv, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
	}
	return regressions
}
