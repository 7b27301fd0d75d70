package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder's epoch. Ref is the transaction sequence
// number or block height the call belongs to; Parent is 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Ref    uint64 `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run pays nothing for it.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its ID for children to name.
func (r *recorder) add(name string, parent int32, ref uint64, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Ref: ref,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	r.mu.Unlock()
	return id
}

// open reserves a span whose end is not known yet; close sets it.
func (r *recorder) open(name string, parent int32, ref uint64, start time.Time) int32 {
	return r.add(name, parent, ref, start, start)
}

func (r *recorder) close(id int32, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(end.Sub(r.epoch))
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent int32, ref uint64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, parent, ref, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime is the per-name aggregate of a trace.
type layerTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// selfTimes computes, for each span name, the total duration and the self
// time: a span's duration minus the part of its interval that its child
// spans cover. Overlapping children are counted once, and a child that
// outlives its parent is clipped to the parent's interval.
func selfTimes(spans []span) []layerTime {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, reach int64
		reach = s.Start
		for _, c := range ivs {
			if c.hi <= reach {
				continue
			}
			covered += c.hi - max(c.lo, reach)
			reach = c.hi
		}
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Count++
		a.TotalNs += s.End - s.Start
		a.SelfNs += s.End - s.Start - covered
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// maxTraceSpans caps the spans written to a trace file; the per-name
// aggregates always cover every span recorded.
const maxTraceSpans = 50000

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	SpansTotal   int         `json:"spans_total"`
	SpansWritten int         `json:"spans_written"`
	Layers       []layerTime `json:"layers"`
	Spans        []span      `json:"spans"`
}

// writeTrace writes the aggregates over all spans, every span outside the
// per-transaction trees (set-up and the layer replay) and as many of the
// earliest transaction trees as fit under maxTraceSpans.
func writeTrace(path, workload string, seed int64, spans []span) error {
	inTx := make(map[int32]bool)
	var kept, txs []span
	for _, s := range spans { // a parent always precedes its children
		if s.Name == "tx" || inTx[s.Parent] {
			inTx[s.ID] = true
			txs = append(txs, s)
		} else {
			kept = append(kept, s)
		}
	}
	kept = append(kept, txs[:min(len(txs), max(0, maxTraceSpans-len(kept)))]...)
	tf := traceFile{
		Workload: workload, Seed: seed, SpansTotal: len(spans), SpansWritten: len(kept),
		Layers: selfTimes(spans), Spans: kept,
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
