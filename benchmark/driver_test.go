package main

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"permchain/internal/types"
)

func counterGen() func() *types.Transaction {
	n := 0
	return func() *types.Transaction {
		n++
		return &types.Transaction{ID: strconv.Itoa(n)}
	}
}

func never(error) bool { return false }

// A submitter that settles at once but stalls 50 ms on one call: every
// transaction scheduled during the stall must be charged for it, because
// latency counts from the intended send time, and the generator's lag must
// report it.
func TestOpenLoopChargesAStallToTheSchedule(t *testing.T) {
	const (
		rate    = 1000.0 // one transaction per millisecond
		stallAt = 20
		stall   = 50 * time.Millisecond
	)
	calls := 0
	l := load{
		next:   counterGen(),
		isShed: never,
		wait:   time.Second,
		submit: func(tx *types.Transaction, settled func(outcome)) error {
			calls++
			if calls == stallAt {
				time.Sleep(stall)
			}
			settled(outCommitted)
			return nil
		},
	}
	res := openLoop(l, rate, 200*time.Millisecond)
	if res.offered != 200 || res.committed != 200 || res.unsettled != 0 {
		t.Fatalf("offered %d committed %d unsettled %d, want 200/200/0", res.offered, res.committed, res.unsettled)
	}
	if res.genLagMax < stall-5*time.Millisecond {
		t.Errorf("generator lag %v does not report the %v stall", res.genLagMax, stall)
	}
	// Transaction stallAt+k was due k ms into the stall, so it waited about
	// 50-k ms: the 30 behind the stalled one all waited at least 15 ms.
	for i := stallAt; i < stallAt+30; i++ {
		if res.latMs[i] < 15 {
			t.Errorf("transaction %d scheduled behind the stall was charged only %.1f ms", i+1, res.latMs[i])
		}
	}
	late := 0
	for _, ms := range res.latMs {
		if ms > 10 {
			late++
		}
	}
	if late < 35 || late > 60 {
		t.Errorf("%d transactions were charged more than 10 ms, want about 40", late)
	}
}

// asyncSubmitter settles each transaction from another goroutine after
// delay, and records how many were ever outstanding at once.
type asyncSubmitter struct {
	delay       time.Duration
	outstanding atomic.Int64
	maxSeen     atomic.Int64
	wg          sync.WaitGroup
}

func (a *asyncSubmitter) submit(_ *types.Transaction, settled func(outcome)) error {
	n := a.outstanding.Add(1)
	for {
		m := a.maxSeen.Load()
		if n <= m || a.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		time.Sleep(a.delay)
		a.outstanding.Add(-1)
		settled(outCommitted)
	}()
	return nil
}

func TestClosedLoopBoundsOutstanding(t *testing.T) {
	a := &asyncSubmitter{delay: 5 * time.Millisecond}
	res := closedLoop(load{next: counterGen(), submit: a.submit, isShed: never, wait: time.Second}, 8, 100*time.Millisecond)
	a.wg.Wait()
	if got := a.maxSeen.Load(); got != 8 {
		t.Errorf("at most %d transactions were outstanding, want exactly 8", got)
	}
	if res.unsettled != 0 || res.committed != res.offered {
		t.Errorf("offered %d committed %d unsettled %d", res.offered, res.committed, res.unsettled)
	}
	// 8 clients, 5 ms each: about 160 in 100 ms; the stragglers settle
	// after sending stops and do not count as throughput.
	if res.onTime < 40 || res.onTime > res.committed {
		t.Errorf("onTime %d of %d committed", res.onTime, res.committed)
	}
}

func TestShedAndErrorsAreCounted(t *testing.T) {
	errShed, errOther := errors.New("shed"), errors.New("other")
	calls := 0
	l := load{
		next:   counterGen(),
		isShed: func(err error) bool { return err == errShed },
		wait:   time.Second,
		submit: func(_ *types.Transaction, settled func(outcome)) error {
			calls++
			switch calls % 4 {
			case 0:
				return errShed
			case 1:
				return errOther
			case 2:
				settled(outAborted)
			default:
				settled(outFailed)
			}
			return nil
		},
	}
	res := burst(l, 40)
	if res.shed != 10 || res.submitErrs != 10 || res.aborted != 10 || res.failed != 10 || res.committed != 0 {
		t.Errorf("shed %d errs %d aborted %d failed %d committed %d, want 10 each and 0",
			res.shed, res.submitErrs, res.aborted, res.failed, res.committed)
	}
	if len(res.latMs) != 0 {
		t.Errorf("only committed transactions have a commit latency, got %d samples", len(res.latMs))
	}
}
