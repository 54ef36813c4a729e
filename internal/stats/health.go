package stats

// This file is the fault-tolerance arm of the statistics catalog: a
// per-endpoint latency estimator rich enough to place hedged requests (an
// EWMA of the mean plus an EWMA of the absolute deviation, giving a cheap
// p95 estimate without histograms), and per-source counters of errors,
// retries and hedges — the raw material of a query's Diagnostics and of
// V$FAULT.

import (
	"sync"
	"time"
)

// Estimator tracks one endpoint's call latency as two EWMAs: the mean and
// the mean absolute deviation. P95 derives a tail estimate from them —
// mean + 3×deviation, the classic TCP RTO shape (Jacobson/Karels), which
// overshoots a normal distribution's p95 slightly and that is the right
// side to err on for hedging: a hedge fired late wastes less than a hedge
// fired into the common case. Safe for concurrent use.
type Estimator struct {
	mu   sync.Mutex
	n    int64
	mean float64 // nanoseconds
	dev  float64 // mean absolute deviation, nanoseconds
}

// estimatorAlpha weighs a fresh observation into both EWMAs.
const estimatorAlpha = 0.25

// Observe folds one measured call latency in.
func (e *Estimator) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	x := float64(d)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	if e.n == 1 {
		e.mean = x
		e.dev = x / 2
		return
	}
	diff := x - e.mean
	if diff < 0 {
		diff = -diff
	}
	e.mean += estimatorAlpha * (x - e.mean)
	e.dev += estimatorAlpha * (diff - e.dev)
}

// Count returns how many latencies have been observed.
func (e *Estimator) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Mean returns the EWMA mean latency (0 before any observation).
func (e *Estimator) Mean() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.mean)
}

// P95 returns the tail-latency estimate mean + 3×deviation, or 0 before
// any observation — callers fall back to a configured delay until the
// estimator has seen traffic.
func (e *Estimator) P95() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return 0
	}
	return time.Duration(e.mean + 3*e.dev)
}

// FaultCounters is one source's cumulative fault-handling activity.
type FaultCounters struct {
	// Errors counts failed replica calls (transport errors, injected
	// faults, blown per-call deadlines).
	Errors int64
	// Retries counts calls re-issued after a failure (failover to another
	// replica included).
	Retries int64
	// Hedges counts hedged requests actually launched.
	Hedges int64
}

// ObserveError books one failed replica call against db. Fault counters
// never bump the catalog Version: they tilt no optimizer decision.
func (c *Catalog) ObserveError(db string) { c.bumpFault(db, func(f *FaultCounters) { f.Errors++ }) }

// ObserveRetry books one retried (or failed-over) call against db.
func (c *Catalog) ObserveRetry(db string) { c.bumpFault(db, func(f *FaultCounters) { f.Retries++ }) }

// ObserveHedge books one launched hedge against db.
func (c *Catalog) ObserveHedge(db string) { c.bumpFault(db, func(f *FaultCounters) { f.Hedges++ }) }

func (c *Catalog) bumpFault(db string, f func(*FaultCounters)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.faults == nil {
		c.faults = make(map[string]*FaultCounters)
	}
	fc := c.faults[db]
	if fc == nil {
		fc = &FaultCounters{}
		c.faults[db] = fc
	}
	f(fc)
}

// Faults returns db's cumulative fault counters (zero value when the
// source has never faulted).
func (c *Catalog) Faults(db string) FaultCounters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if fc, ok := c.faults[db]; ok {
		return *fc
	}
	return FaultCounters{}
}

// AllFaults returns a copy of every source's fault counters, keyed by local
// database name, taken under one lock acquisition. Sources that have never
// faulted are absent; callers wanting zero rows for them merge in the
// federation's source list. The V$FAULT virtual table and the /metrics
// endpoint read the catalog through this snapshot.
func (c *Catalog) AllFaults() map[string]FaultCounters {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]FaultCounters, len(c.faults))
	for db, fc := range c.faults {
		out[db] = *fc
	}
	return out
}
