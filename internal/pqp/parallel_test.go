package pqp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/translate"
	"repro/internal/workload"
)

// TestParallelMatchesSerial: with the intra-operator parallel path forced
// on (threshold 1), the paper query's joins build partitioned and probe
// through the ParallelCursor, and the answer is the serial PQP's row for
// row.
func TestParallelMatchesSerial(t *testing.T) {
	serial := newPQP(t)
	serial.SetParallel(-1, 0)
	par := newPQP(t)
	par.SetParallel(4, 1)
	for _, sql := range streamQueries {
		want, err := serial.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s: serial: %v", sql, err)
		}
		got, err := par.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s: parallel: %v", sql, err)
		}
		diffRows(t, sql+" [parallel vs serial]", render(got.Relation), render(want.Relation))
	}
}

// TestParallelOverlapsLQPLatency: with three LQPs at injected latency, the
// Merge's retrieve fan-out overlaps under streaming execution — every local
// row is opened eagerly behind a prefetching reader — while retain mode,
// which drains each row before opening the next, pays one full round trip
// per local operation.
func TestParallelOverlapsLQPLatency(t *testing.T) {
	const latency = 20 * time.Millisecond
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := lqp.NewCounting(l)
		c.Latency = latency
		lqps[name] = c
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	e, err := translate.CompileSQL(`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`, q.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(e) // plan once; time the two modes below
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := q.ExecuteMaterialized(res.Plan); err != nil {
		t.Fatal(err)
	}
	retained := time.Since(start)
	start = time.Now()
	if _, err := q.Execute(res.Plan); err != nil {
		t.Fatal(err)
	}
	streaming := time.Since(start)
	if retained < 3*latency {
		t.Fatalf("retain-mode run too fast (%v); latency injection broken?", retained)
	}
	if streaming >= retained {
		t.Errorf("streaming (%v) not faster than retain mode (%v)", streaming, retained)
	}
}

// TestParallelErrorPropagation: a failing local row aborts the query with
// an error naming it while an earlier row's prefetching stream is already
// running, and that stream is closed rather than leaked.
func TestParallelErrorPropagation(t *testing.T) {
	q := newPQP(t)
	bad := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 2, Op: translate.OpRetrieve, LHR: translate.LocalOperand("NOSUCH"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 3, Op: translate.OpUnion, LHR: translate.RegOperand(1), RHA: translate.NoComparand(), RHR: translate.RegOperand(2), EL: "PQP"},
	}}
	if _, err := q.Execute(bad); err == nil || !strings.Contains(err.Error(), "NOSUCH") {
		t.Errorf("Execute error = %v, want one naming NOSUCH", err)
	}
	if _, err := q.ExecuteAll(bad); err == nil || !strings.Contains(err.Error(), "NOSUCH") {
		t.Errorf("ExecuteAll error = %v, want one naming NOSUCH", err)
	}
}

// TestIntraOpParallelEnginesMatchSerial: the same queries over a federation
// big enough to cross the cost threshold produce cell-for-cell identical
// answers — row order included — from a parallel-configured PQP (whose
// Join and Difference build sides partition) and a parallel-disabled one.
// Run under the CI -race job, this also holds the shared worker pool to the
// data-race contract.
func TestIntraOpParallelEnginesMatchSerial(t *testing.T) {
	f := workload.New(workload.Config{Databases: 2, Entities: 20000, Overlap: 0.6, Categories: 5, Seed: 9})
	queries := []string{
		// Difference of overlapping selections: the build side carries
		// several thousand entities, above the 1k threshold set below.
		`(PENTITY [CAT >= "cat1"]) MINUS (PENTITY [CAT = "cat3"])`,
		// A key join of two big selections: partitioned build, parallel
		// probe.
		`((PENTITY [CAT >= "cat2"]) [KEY = KEY] (PENTITY [CAT <= "cat3"])) [KEY, CAT]`,
		// The blocking operators stay serial; they must still agree.
		`(PENTITY [CAT = "cat1"]) UNION (PENTITY [CAT = "cat2"])`,
		`(PENTITY [CAT >= "cat1"]) INTERSECT (PENTITY [CAT <= "cat3"])`,
	}
	serial := New(f.Schema, f.Registry, nil, f.LQPs())
	serial.SetParallel(-1, 0) // parallel path off: the serial reference
	par := New(f.Schema, f.Registry, nil, f.LQPs())
	par.SetParallel(4, 1024)
	for _, qt := range queries {
		want, err := serial.QueryAlgebra(qt)
		if err != nil {
			t.Fatalf("%s: serial: %v", qt, err)
		}
		got, err := par.QueryAlgebra(qt)
		if err != nil {
			t.Fatalf("%s: parallel: %v", qt, err)
		}
		if got.Relation.Cardinality() == 0 {
			t.Fatalf("%s: empty answer; the comparison would be vacuous", qt)
		}
		if a, b := strings.Join(render(want.Relation), "\n"), strings.Join(render(got.Relation), "\n"); a != b {
			t.Errorf("%s: parallel answer diverged from serial", qt)
		}
	}
}
