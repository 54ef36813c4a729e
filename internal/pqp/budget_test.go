package pqp

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestMemoryBudgetRefusesStarJoin: under a budget far below its join build,
// a star join fails with core.ErrOverBudget, also from concurrent clients,
// and every refusal is counted;
// with the bound removed, the same text answers exactly as the Ref*
// reference does.
func TestMemoryBudgetRefusesStarJoin(t *testing.T) {
	const text = `((PFACT [DK = DK] PDIM) [VAL, DCAT])`
	star := workload.NewStar(workload.DefaultStarConfig())
	q := New(star.Schema, star.Registry, nil, star.LQPs())

	// Concurrent queries share the Memory but charge separate builds: each
	// is refused on its own and the shared counter sees every refusal.
	q.SetMemoryBudget(1 << 10)
	mem := q.MemoryConfig()
	const clients = 4
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := q.QueryAlgebra(text); !errors.Is(err, core.ErrOverBudget) {
				t.Errorf("1 KB budget: got %v, want core.ErrOverBudget", err)
			}
		}()
	}
	wg.Wait()
	if n := mem.Refused.Load(); n < clients {
		t.Fatalf("%d refusals counted for %d refused queries", n, clients)
	}

	q.SetMemoryBudget(0)
	if q.MemoryConfig() != nil {
		t.Fatal("SetMemoryBudget(0) left a budget in place")
	}
	res, err := q.QueryAlgebra(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relation.Tuples) == 0 {
		t.Fatal("star join answered no rows")
	}
	wantReference(t, q, text, res.Plan, res.Relation)
}
