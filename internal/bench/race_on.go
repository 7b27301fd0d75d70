//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation costs roughly an order of magnitude of CPU, which can
// turn latency-bound sweeps (E16) compute-bound on small machines;
// experiments scale their modeled latencies up so the measured regime
// survives instrumentation.
const raceEnabled = true
