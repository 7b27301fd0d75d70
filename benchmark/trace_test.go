package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A hand-built tree:
//
//	root      [0,100]
//	  a       [10,40]
//	  b       [30,60]   overlaps a on [30,40]
//	  c       [90,130]  outlives root by 30
//	    leaf  [95,100]
//	orphan    [0,5]     parent 99 was never recorded
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		{ID: 5, Parent: 4, Name: "leaf", Start: 95, End: 100},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 5},
	}
	want := map[string]layerTime{
		// children cover [10,60] and [90,100] of the root: 60 of 100.
		"root":   {Name: "root", Count: 1, TotalNs: 100, SelfNs: 40},
		"a":      {Name: "a", Count: 1, TotalNs: 30, SelfNs: 30},
		"b":      {Name: "b", Count: 1, TotalNs: 30, SelfNs: 30},
		"c":      {Name: "c", Count: 1, TotalNs: 40, SelfNs: 35},
		"leaf":   {Name: "leaf", Count: 1, TotalNs: 5, SelfNs: 5},
		"orphan": {Name: "orphan", Count: 1, TotalNs: 5, SelfNs: 5},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d: %+v", len(got), len(want), got)
	}
	for _, g := range got {
		if g != want[g.Name] {
			t.Errorf("%s: got %+v, want %+v", g.Name, g, want[g.Name])
		}
	}
}

func TestSelfTimesAggregatesByName(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "tx", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 4},
		{ID: 3, Name: "tx", Start: 5, End: 25},
		{ID: 4, Parent: 3, Name: "submit", Start: 5, End: 6},
	}
	got := selfTimes(spans)
	want := []layerTime{
		{Name: "submit", Count: 2, TotalNs: 5, SelfNs: 5},
		{Name: "tx", Count: 2, TotalNs: 30, SelfNs: 25},
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestRecorderAndTraceFile(t *testing.T) {
	var none *recorder
	if id := none.open("x", 0, 0, time.Now()); id != 0 || none.snapshot() != nil {
		t.Fatal("a nil recorder must record nothing")
	}
	rec := newRecorder()
	t0 := rec.epoch
	root := rec.open("tx", 0, 7, t0)
	rec.add("client.submit", root, 7, t0, t0.Add(3))
	rec.close(root, t0.Add(10))
	path := filepath.Join(t.TempDir(), "w.trace.json")
	if err := writeTrace(path, "w", 5, rec.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "w" || tf.Seed != 5 || tf.SpansTotal != 2 || len(tf.Spans) != 2 {
		t.Fatalf("trace file header wrong: %+v", tf)
	}
	if s := tf.Spans[0]; s.Name != "tx" || s.Ref != 7 || s.End-s.Start != 10 {
		t.Errorf("root span wrong: %+v", s)
	}
	if s := tf.Spans[1]; s.Parent != tf.Spans[0].ID || s.End-s.Start != 3 {
		t.Errorf("child span wrong: %+v", s)
	}
	if len(tf.Layers) != 2 || tf.Layers[1].SelfNs != 7 {
		t.Errorf("layers wrong: %+v", tf.Layers)
	}
}
