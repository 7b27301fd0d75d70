package consensus

import (
	"sync"
	"sync/atomic"
	"testing"

	"permchain/internal/obs"
	"permchain/internal/types"
)

// TestLoopLifecycle walks a Loop through every state edge and counts how
// often its body runs.
func TestLoopLifecycle(t *testing.T) {
	o := obs.New()
	var runs atomic.Int32
	body := func(l *Loop) func(stop <-chan struct{}, submits <-chan Submission) {
		return func(stop <-chan struct{}, submits <-chan Submission) {
			runs.Add(1)
			for {
				select {
				case <-stop:
					return
				case s := <-submits:
					l.Decide(1, s.Digest, s.Value)
				}
			}
		}
	}

	// new → stopped: Stop returns without a body, and nothing starts later.
	l := NewLoop(Config{Self: 3, Obs: o}, "test")
	l.Stop()
	l.Stop()
	l.Start(body(l))
	l.Submit("late", types.HashBytes([]byte("late")))
	if l.state != loopStopped || runs.Load() != 0 {
		t.Fatalf("state %d after Stop before Start, %d bodies ran", l.state, runs.Load())
	}

	// new → running → stopped, with concurrent Starts and Stops.
	l = NewLoop(Config{Self: 3, Obs: o}, "test")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Start(body(l))
		}()
	}
	wg.Wait()
	d := types.HashBytes([]byte("v"))
	l.Submit("v", d)
	if got := <-l.Decisions(); got != (Decision{Seq: 1, Digest: d, Value: "v", Node: 3}) || l.ID() != 3 {
		t.Fatalf("decision %+v from replica %d", got, l.ID())
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Stop()
		}()
	}
	wg.Wait()
	l.Start(body(l))
	l.Submit("late", d)
	if l.state != loopStopped || runs.Load() != 1 {
		t.Fatalf("state %d after Stop, %d bodies ran, want 1", l.state, runs.Load())
	}
	if n := o.Reg.Counter("test/decisions").Value(); n != 1 {
		t.Fatalf("test/decisions = %d, want 1", n)
	}
}
