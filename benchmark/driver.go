package main

import (
	"sync"
	"sync/atomic"
	"time"

	"permchain/internal/types"
)

// outcome is how one submitted transaction ended.
type outcome uint8

const (
	outCommitted outcome = iota
	outAborted           // concurrency control said no (XOV MVCC, 2PC abort)
	outFailed            // execution error, or the chain stopped first
)

// submitFn hands tx to the system under test. On a nil error, settled is
// called exactly once, from the system's settling goroutine, when the
// receipt is durably settled; it must not block.
type submitFn func(tx *types.Transaction, settled func(outcome)) error

// load describes one phase of offered traffic.
type load struct {
	submit  submitFn
	next    func() *types.Transaction
	isCross func(*types.Transaction) bool // nil unless sharded
	isShed  func(error) bool              // tells an admission-control refusal from other errors
	rec     *recorder                     // nil in the untraced run
	wait    time.Duration                 // how long to wait for stragglers
}

// loadResult is what one phase measured. Latencies are in milliseconds,
// from the intended send time to the settled receipt, committed
// transactions only.
type loadResult struct {
	began, sendEnd time.Time
	drained        time.Time // when the last receipt settled

	offered    int // transactions the schedule called for
	shed       int // refused by admission control
	submitErrs int // any other SubmitAsync error
	committed  int
	aborted    int
	failed     int
	unsettled  int // admitted but not settled within wait
	onTime     int // committed before sendEnd (closed loop's throughput count)

	latMs      []float64
	crossLatMs []float64 // sharded: two-shard transactions only
	intraLatMs []float64 // sharded: one-shard transactions only
	submitUs   []float64 // duration of each SubmitAsync call
	genLagMax  time.Duration
}

// tps is the closed loop's throughput: receipts committed while the phase
// was still sending, over that time.
func (res *loadResult) tps() float64 {
	return ratio(float64(res.onTime), res.sendEnd.Sub(res.began).Seconds())
}

// collector gathers settlements; its methods are safe for the settling
// goroutines to call concurrently.
type collector struct {
	l           load
	mu          sync.Mutex
	res         loadResult
	outstanding atomic.Int64
	sendEnd     atomic.Int64 // unix nanos; 0 until sending stops
}

// send submits one transaction scheduled for intended and reports whether
// it was admitted. onSettle, when non-nil, runs after the sample is
// recorded.
func (c *collector) send(intended time.Time, onSettle func()) bool {
	tx := c.l.next()
	cross := c.l.isCross != nil && c.l.isCross(tx)
	c.res.offered++
	callStart := time.Now()
	if lag := callStart.Sub(intended); lag > c.res.genLagMax {
		c.res.genLagMax = lag
	}
	ref := uint64(c.res.offered)
	root := c.l.rec.open("tx", 0, ref, intended)
	c.outstanding.Add(1)
	err := c.l.submit(tx, func(o outcome) {
		now := time.Now()
		c.l.rec.close(root, now)
		ms := float64(now.Sub(intended)) / 1e6
		c.mu.Lock()
		c.res.drained = now
		switch o {
		case outCommitted:
			c.res.committed++
			if end := c.sendEnd.Load(); end == 0 || now.UnixNano() <= end {
				c.res.onTime++
			}
			c.res.latMs = append(c.res.latMs, ms)
			if c.l.isCross != nil {
				if cross {
					c.res.crossLatMs = append(c.res.crossLatMs, ms)
				} else {
					c.res.intraLatMs = append(c.res.intraLatMs, ms)
				}
			}
		case outAborted:
			c.res.aborted++
		default:
			c.res.failed++
		}
		c.mu.Unlock()
		c.outstanding.Add(-1)
		if onSettle != nil {
			onSettle()
		}
	})
	callEnd := time.Now()
	c.l.rec.add("client.gen_lag", root, ref, intended, callStart)
	c.l.rec.add("client.submit", root, ref, callStart, callEnd)
	c.mu.Lock()
	c.res.submitUs = append(c.res.submitUs, float64(callEnd.Sub(callStart))/1e3)
	if err != nil {
		if c.l.isShed(err) {
			c.res.shed++
		} else {
			c.res.submitErrs++
		}
	}
	c.mu.Unlock()
	if err != nil {
		c.outstanding.Add(-1)
		c.l.rec.close(root, callEnd)
		return false
	}
	return true
}

// finish stops the clock on sending, waits for stragglers and returns the
// result.
func (c *collector) finish() *loadResult {
	now := time.Now()
	c.sendEnd.Store(now.UnixNano())
	deadline := now.Add(c.l.wait)
	for c.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	res := c.res
	res.sendEnd = now
	res.unsettled = int(c.outstanding.Load())
	return &res
}

// burst sends n transactions back to back and waits for them to settle.
func burst(l load, n int) *loadResult {
	c := &collector{l: l}
	c.res.began = time.Now()
	for i := 0; i < n; i++ {
		c.send(time.Now(), nil)
	}
	return c.finish()
}

// openLoop offers rate tx/s for dur on a fixed schedule, whatever the
// system does: transaction i is due at began + i/rate and is timed from
// then, so a stall is charged to every transaction scheduled behind it.
// The generator wakes at most once a millisecond and sends everything
// that has come due.
func openLoop(l load, rate float64, dur time.Duration) *loadResult {
	c := &collector{l: l}
	c.res.began = time.Now()
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		intended := c.res.began.Add(time.Duration(i) * interval)
		if d := time.Until(intended); d > 0 {
			time.Sleep(max(d, time.Millisecond))
		}
		c.send(intended, nil)
	}
	return c.finish()
}

// closedLoop keeps clients transactions outstanding for dur: a new one is
// sent only when an earlier one settles, so a slow system receives less
// load. Throughput counts receipts committed before dur ends.
func closedLoop(l load, clients int, dur time.Duration) *loadResult {
	c := &collector{l: l}
	c.res.began = time.Now()
	tokens := make(chan struct{}, clients) // semaphore: one slot per client
	for i := 0; i < clients; i++ {
		tokens <- struct{}{}
	}
	release := func() { tokens <- struct{}{} }
	stop := time.NewTimer(dur)
	defer stop.Stop()
	for {
		select {
		case <-stop.C:
			return c.finish()
		case <-tokens:
			if !c.send(time.Now(), release) {
				release()
			}
		}
	}
}
