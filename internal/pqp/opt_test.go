package pqp

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/translate"
	"repro/internal/wire"
	"repro/internal/workload"
)

// This file holds the property suite of the cost-based federated optimizer:
// every optimized plan must produce the same polygen relation — data,
// origin tags AND intermediate tags, cell for cell — as the unoptimized
// plan, and both must match the Ref* reference evaluation. The optimizer
// is free to change WHERE work happens (pushed-down subplans, narrowed
// retrievals, swapped join operands); it is never free to change the
// answer.

// renderSorted renders a relation one line per tuple (cells in the paper's
// "datum, {o}, {i}" notation) and sorts the lines, so plans that produce
// rows in a different order — join-operand swaps legitimately do — still
// compare cell-for-cell.
func renderSorted(p *core.Relation) []string {
	out := render(p)
	sort.Strings(out)
	return out
}

func diffRows(t *testing.T, label string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: relations differ\n got:\n  %s\nwant:\n  %s",
			label, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// paperQueries is the paperdata battery: selection chains (fusable),
// projection chains, merges (not fusable), domain-mapped attributes
// (PQP-pinned), joins, set operations, and the paper's worked example.
var paperQueries = []string{
	`(PALUMNUS [DEGREE = "MBA"])`,
	`(PALUMNUS [DEGREE = "MBA"]) [MAJOR = "IS"]`,
	`((PALUMNUS [DEGREE = "MBA"]) [MAJOR = "IS"]) [ANAME]`,
	`(PALUMNUS [DEGREE = "MBA"]) [ANAME, DEGREE]`,
	`(PORGANIZATION [INDUSTRY = "Banking"]) [ONAME, CEO]`,
	`(PORGANIZATION [INDUSTRY = "Banking"]) UNION (PORGANIZATION [INDUSTRY = "Energy"])`,
	`(PALUMNUS) MINUS (PALUMNUS [DEGREE = "MBA"])`,
	`( ( ( ( PALUMNUS [DEGREE = "MBA"] ) [AID#=AID#] PCAREER) [ONAME = ONAME] PORGANIZATION) [CEO = ANAME ] ) [ONAME, CEO]`,
	`(PSTUDENT [GPA >= 3.5]) [SNAME, GPA]`,
}

// starQueries is the star-schema battery under an exact resolver with
// statistics: join chains that reorder, chains that fuse, and mixes.
var starQueries = []string{
	`((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`,
	`((PDIM [DK = DK] PFACT) [VAL, DCAT])`,
	`(((PFACT [DK = DK] PDIM) [MK = MK] PMID) [VAL, DCAT, GRADE])`,
	`(((PFACT [CAT = "cat1"]) [DK = DK] PDIM) [VAL, DCAT])`,
}

// runAllEngines executes one query optimized and unoptimized and checks
// cell-for-cell agreement of both answers with each other and with the Ref*
// reference evaluation of both plans. It returns the optimized plan for
// shape assertions.
func runAllEngines(t *testing.T, q *PQP, query string) *translate.Matrix {
	t.Helper()
	q.Optimize = true
	opt, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatalf("optimized %s: %v", query, err)
	}
	q.Optimize = false
	ref, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatalf("reference %s: %v", query, err)
	}
	q.Optimize = true

	diffRows(t, query+" [optimized vs unoptimized]", renderSorted(opt.Relation), renderSorted(ref.Relation))
	wantReference(t, q, query+" [unoptimized plan]", ref.Plan, ref.Relation)
	wantReference(t, q, query+" [optimized plan]", opt.Plan, opt.Relation)
	return opt.Plan
}

// TestOptimizedPlansMatchReferencePaper: the paperdata battery under the
// CaseFold resolver (so restrict pushdown and join reordering stay off, and
// fusion/narrowing carry the plans).
func TestOptimizedPlansMatchReferencePaper(t *testing.T) {
	fed := paperdata.New()
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	for _, query := range paperQueries {
		runAllEngines(t, q, query)
	}
}

// TestOptimizedPlansMatchReferenceStar: the star battery under an exact
// resolver with collected statistics — every cost-based pass is live, and
// the strict tag rule still holds cell-for-cell.
func TestOptimizedPlansMatchReferenceStar(t *testing.T) {
	star := workload.NewStar(workload.DefaultStarConfig())
	q := New(star.Schema, star.Registry, nil, star.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	for _, query := range starQueries {
		runAllEngines(t, q, query)
	}
}

// TestOptimizedPlansOverWire: the same agreement holds when the LQPs are
// remote — pushed-down subplans travel the new "execplan"/"openplan"
// request kinds and statistics the "stats" kind.
func TestOptimizedPlansOverWire(t *testing.T) {
	star := workload.NewStar(workload.StarConfig{Facts: 500, Dims: 20, Mids: 5, Categories: 5, Seed: 7})
	lqps := make(map[string]lqp.LQP, 3)
	for _, db := range star.Databases() {
		srv := wire.NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		lqps[client.Name()] = client
	}
	q := New(star.Schema, star.Registry, nil, lqps)
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	for _, query := range starQueries {
		runAllEngines(t, q, query)
	}
}

// TestRelaxedReorderPreservesDataAndOrigins: with RelaxedJoinReorder the
// optimizer may pick join orders whose intermediate tags record the new
// evaluation order; data and origin tags must still match the reference
// exactly.
func TestRelaxedReorderPreservesDataAndOrigins(t *testing.T) {
	star := workload.NewStar(workload.DefaultStarConfig())
	q := New(star.Schema, star.Registry, nil, star.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	q.RelaxedJoinReorder = true
	query := `(((PFACT [DK = DK] PDIM) [MK = MK] PMID) [VAL, DCAT, GRADE])`
	opt, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	q.Optimize = false
	ref, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderDataOrigins(opt.Relation), renderDataOrigins(ref.Relation)
	sort.Strings(a)
	sort.Strings(b)
	diffRows(t, query+" [relaxed reorder, data+origins]", a, b)
}

// renderDataOrigins renders data and origin tags only (the relaxed mode's
// contract excludes intermediate tags).
func renderDataOrigins(p *core.Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = c.D.String() + ", " + c.O.Format(p.Reg)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out
}

// TestPushdownReducesTransfer: the whole point — a fused subplan ships only
// the filtered, narrowed rows. counting LQPs meter the simulated transfer.
func TestPushdownReducesTransfer(t *testing.T) {
	star := workload.NewStar(workload.DefaultStarConfig())
	counters := make(map[string]*counting, 3)
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range star.LQPs() {
		c := newCounting(l)
		counters[name] = c
		lqps[name] = c
	}
	q := New(star.Schema, star.Registry, nil, lqps)
	query := `((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`

	q.Optimize = false
	if _, err := q.QueryAlgebra(query); err != nil {
		t.Fatal(err)
	}
	unopt := counters["FD"].CellsTransferred()
	counters["FD"].Reset()

	q.Optimize = true
	res, err := q.QueryAlgebra(query)
	if err != nil {
		t.Fatal(err)
	}
	opt := counters["FD"].CellsTransferred()
	if opt >= unopt {
		t.Errorf("pushdown did not reduce transfer: %d cells optimized vs %d unoptimized\nplan:\n%s",
			opt, unopt, res.Plan)
	}
	// The fused subplan reached the LQP as one pushed plan with the chained
	// filter and the projection.
	plans := counters["FD"].Plans()
	if len(plans) != 1 || len(plans[0].Steps()) != 2 {
		t.Fatalf("expected one 2-step pushed plan at FD, got %v", plans)
	}
	// Optimized transfer is exactly the surviving rows × the single
	// projected column.
	if want := int64(res.Relation.Cardinality()); opt != want {
		t.Errorf("optimized transfer = %d cells, want %d (rows × 1 narrowed column)", opt, want)
	}
}
