package workload

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pqp"
)

func TestDriveCountsAndPercentiles(t *testing.T) {
	var calls atomic.Int64
	res := Drive(4, 25, func(worker, i int) error {
		calls.Add(1)
		if worker == 0 && i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if got := calls.Load(); got != 100 {
		t.Fatalf("run called %d times, want 100", got)
	}
	if res.Ops != 99 || res.Errors != 1 || res.Clients != 4 {
		t.Fatalf("result = %+v", res)
	}
	if res.QPS <= 0 || res.Elapsed <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 || res.P99 > res.Max {
		t.Fatalf("percentiles out of order: %+v", res)
	}
}

func TestDriveClampsDegenerateArgs(t *testing.T) {
	res := Drive(0, 0, func(worker, i int) error { return nil })
	if res.Clients != 1 || res.Ops != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.50); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

// TestStarQueriesRun: the closed-loop query mix parses and answers on the
// star federation (guards the soak and concurrency tests against schema
// drift).
func TestStarQueriesRun(t *testing.T) {
	star := NewStar(StarConfig{Facts: 300, Dims: 20, Mids: 5, Categories: 10, Seed: 7})
	q := pqp.New(star.Schema, star.Registry, nil, star.LQPs())
	for _, text := range StarQueries() {
		if _, err := q.QueryAlgebra(text); err != nil {
			t.Errorf("%s: %v", text, err)
		}
	}
}
