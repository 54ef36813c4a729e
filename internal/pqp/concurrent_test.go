package pqp

// The mediator service layer shares one PQP across every client session, so
// concurrent QuerySQL/QueryAlgebra on one instance must be indistinguishable
// from serial execution — cell for cell, origin and intermediate tags
// included. This property suite proves it: serial baselines first, then N
// goroutines hammering the same shared instance with the same and different
// queries (through the shared plan cache, resolver and statistics catalog),
// every answer compared against its baseline. The CI race job
// runs the whole test suite under -race, so these tests double as data-race
// probes for the shared paths.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/paperdata"
	"repro/internal/workload"
)

// canonRows renders a tagged relation registry-order-independently: every
// cell as datum plus sorted source-name sets, rows sorted.
func canonRows(p *core.Relation) string {
	rows := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		var b strings.Builder
		for i, c := range t {
			if i > 0 {
				b.WriteString(" | ")
			}
			o := c.O.Names(p.Reg)
			sort.Strings(o)
			in := c.I.Names(p.Reg)
			sort.Strings(in)
			fmt.Fprintf(&b, "%s {%s} {%s}", c.D, strings.Join(o, ","), strings.Join(in, ","))
		}
		rows = append(rows, b.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

type concQuery struct {
	text      string
	algebraic bool
}

func (q *PQP) runConc(c concQuery) (*Result, error) {
	if c.algebraic {
		return q.QueryAlgebra(c.text)
	}
	return q.QuerySQL(c.text)
}

// hammer runs every query serially for baselines, then from workers
// goroutines × rounds repetitions each, comparing every concurrent answer
// to its serial baseline.
func hammer(t *testing.T, q *PQP, queries []concQuery, workers, rounds int) {
	t.Helper()
	want := make([]string, len(queries))
	for i, c := range queries {
		res, err := q.runConc(c)
		if err != nil {
			t.Fatalf("serial baseline %q: %v", c.text, err)
		}
		want[i] = canonRows(res.Relation)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger starting points so identical and different queries
				// overlap in every combination.
				for i := range queries {
					c := queries[(w+r+i)%len(queries)]
					res, err := q.runConc(c)
					if err != nil {
						t.Errorf("worker %d: %q: %v", w, c.text, err)
						return
					}
					if got := canonRows(res.Relation); got != want[(w+r+i)%len(queries)] {
						t.Errorf("worker %d: %q diverged from serial execution\n got: %s\nwant: %s",
							w, c.text, got, want[(w+r+i)%len(queries)])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentQueriesMatchSerialPaper: the paper federation under a
// case-folding resolver — merges, coalesces, domain mappings and the
// resolver all shared.
func TestConcurrentQueriesMatchSerialPaper(t *testing.T) {
	fed := paperdata.New()
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	queries := []concQuery{
		{`SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`, false},
		{`SELECT ANAME, DEGREE FROM PALUMNUS WHERE DEGREE = "MBA"`, false},
		{`( PALUMNUS [DEGREE = "MBA"] ) [ANAME]`, true},
		{`SELECT ONAME FROM PORGANIZATION`, false},
		{`( PCAREER [AID# = AID#] PALUMNUS ) [ANAME, ONAME]`, true},
	}
	hammer(t, q, queries, 8, 3)
}

// TestConcurrentQueriesMatchSerialStar: the star federation with statistics
// collected — the optimizer's stats observations and the plan cache churn
// concurrently with execution.
func TestConcurrentQueriesMatchSerialStar(t *testing.T) {
	cfg := workload.DefaultStarConfig()
	cfg.Facts = 500
	star := workload.NewStar(cfg)
	q := New(star.Schema, star.Registry, nil, star.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	queries := make([]concQuery, 0, len(workload.StarQueries()))
	for _, text := range workload.StarQueries() {
		queries = append(queries, concQuery{text, true})
	}
	hammer(t, q, queries, 8, 3)
}

// TestConcurrentQueriesNoPlanCache: the same property with the plan cache
// disabled — concurrent optimizer runs (including the join-order search)
// must also be independent.
func TestConcurrentQueriesNoPlanCache(t *testing.T) {
	fed := paperdata.New()
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	q.Plans = nil
	queries := []concQuery{
		{`SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`, false},
		{`( PALUMNUS [DEGREE = "MBA"] ) [ANAME]`, true},
	}
	hammer(t, q, queries, 8, 2)
}

// TestPlanCacheHitSkipsOptimizer: the second identical query returns the
// cached matrices — pointer-identical plans, so the optimizer (and its
// reorder search) provably did not run again.
func TestPlanCacheHitSkipsOptimizer(t *testing.T) {
	fed := paperdata.New()
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	const query = `SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`
	first, err := q.QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first query reported a cache hit")
	}
	second, err := q.QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical query missed the plan cache")
	}
	if second.Plan != first.Plan || second.POM != first.POM {
		t.Error("cache hit rebuilt the plan matrices")
	}
	st := q.Plans.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Errorf("cache stats = %+v", st)
	}
	if got, want := canonRows(second.Relation), canonRows(first.Relation); got != want {
		t.Errorf("cached plan changed the answer\n got: %s\nwant: %s", got, want)
	}
	// Equivalent formatting of the same query normalizes to the same key.
	third, err := q.QuerySQL("SELECT  ONAME,  CEO  FROM PORGANIZATION  WHERE INDUSTRY = \"Banking\"")
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Error("reformatted query missed the plan cache")
	}
}

// TestPlanCacheInvalidation: a statistics change re-plans; flag changes
// key separately.
func TestPlanCacheInvalidation(t *testing.T) {
	cfg := workload.DefaultStarConfig()
	cfg.Facts = 200
	star := workload.NewStar(cfg)
	q := New(star.Schema, star.Registry, nil, star.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	const query = `((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`
	if _, err := q.QueryAlgebra(query); err != nil {
		t.Fatal(err)
	}
	res, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("steady-state query missed the plan cache")
	}
	// A deliberate statistics change bumps the version: the next run must
	// re-plan.
	q.Stats.SetLatency("FD", 123)
	res, err = q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("query hit a plan cached under stale statistics")
	}
	// Optimizer flags key separately too.
	q.RelaxedJoinReorder = true
	res, err = q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("flag change reused a plan cached under other options")
	}
}

// TestPlanCacheInvalidationOnRecollect: CollectStats installs a brand-new
// catalog; plans cached under the old one must miss even though the new
// catalog's version counter restarts (the key fingerprints the catalog
// instance, not just the version).
func TestPlanCacheInvalidationOnRecollect(t *testing.T) {
	cfg := workload.DefaultStarConfig()
	cfg.Facts = 200
	star := workload.NewStar(cfg)
	q := New(star.Schema, star.Registry, nil, star.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	const query = `((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`
	if _, err := q.QueryAlgebra(query); err != nil {
		t.Fatal(err)
	}
	// Fresh catalog: its version counter restarts and may collide with the
	// old catalog's, but its process-unique ID cannot.
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	res, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("query hit a plan cached under the replaced statistics catalog")
	}
}
