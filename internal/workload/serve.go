package workload

// The closed-loop concurrent load of the observability soak test: N
// clients, each issuing its next query as soon as the previous one answers,
// against any run function (a wire.Client session against polygend, or a
// shared in-process PQP). It counts failures and measures throughput and
// tail latency.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DriveResult summarizes one closed-loop run.
type DriveResult struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Ops is the number of completed operations (errors excluded).
	Ops int
	// Errors is the number of failed operations.
	Errors int
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// QPS is Ops / Elapsed.
	QPS float64
	// P50, P95, P99 and Max are latency percentiles over completed
	// operations.
	P50, P95, P99, Max time.Duration
}

// String renders the result one line, benchmark-log style.
func (r DriveResult) String() string {
	return fmt.Sprintf("clients=%d ops=%d errors=%d qps=%.1f p50=%v p95=%v p99=%v max=%v",
		r.Clients, r.Ops, r.Errors, r.QPS, r.P50, r.P95, r.P99, r.Max)
}

// Drive runs a closed loop: clients goroutines, each calling run(worker, i)
// opsPerClient times back to back (worker is the goroutine index, i the
// operation index within it — use them to pick a query and a session).
// Latency is measured around each call; errors are counted (each failed
// call adds one to Errors) and the worker presses on, so one bad query
// cannot zero a throughput measurement.
func Drive(clients, opsPerClient int, run func(worker, i int) error) DriveResult {
	if clients < 1 {
		clients = 1
	}
	if opsPerClient < 1 {
		opsPerClient = 1
	}
	lats := make([][]time.Duration, clients)
	errs := make([]int, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, opsPerClient)
			for i := 0; i < opsPerClient; i++ {
				t0 := time.Now()
				if err := run(w, i); err != nil {
					errs[w]++
					continue
				}
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	all := make([]time.Duration, 0, clients*opsPerClient)
	errors := 0
	for w := range lats {
		all = append(all, lats[w]...)
		errors += errs[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := DriveResult{Clients: clients, Ops: len(all), Errors: errors, Elapsed: elapsed}
	if len(all) == 0 {
		return res
	}
	res.QPS = float64(len(all)) / elapsed.Seconds()
	res.P50 = percentile(all, 0.50)
	res.P95 = percentile(all, 0.95)
	res.P99 = percentile(all, 0.99)
	res.Max = all[len(all)-1]
	return res
}

// percentile reads the p-quantile from sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// StarQueries returns the closed-loop query mix over the star federation: a
// pushdown-friendly selection chain, a star join, and a cheap dimension
// scan — enough plan variety that the plan cache holds several entries
// while each distinct query repeats often.
func StarQueries() []string {
	return []string{
		`((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`,
		`((PFACT [CAT = "cat1"]) [DK = DK] PDIM) [VAL, DCAT]`,
		`PDIM [DCAT = "dcat0"]`,
		`((PFACT [CAT = "cat7"]) [VAL >= 2500]) [VAL]`,
	}
}
