package translate

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// starNarrowOptions is the star federation's schema with a statistics
// catalog collected from its LQPs, under an exact resolver — the options
// the PQP hands the optimizer after CollectStats.
func starNarrowOptions(t *testing.T) Options {
	t.Helper()
	star := workload.NewStar(workload.StarConfig{Facts: 200, Dims: 10, Mids: 4, Categories: 5, Seed: 1})
	cat, err := stats.Collect(star.LQPs())
	if err != nil {
		t.Fatal(err)
	}
	return Options{Schema: star.Schema, Stats: cat, CanPush: pushAll, ExactResolver: true}
}

func optimizeText(t *testing.T, opts Options, expr string) *Matrix {
	t.Helper()
	_, _, iom := translateAllWith(t, opts.Schema, expr)
	return optimizeWith(t, iom, opts)
}

// localRowOf returns the plan's row reading the named local relation.
func localRowOf(t *testing.T, plan *Matrix, relation string) Row {
	t.Helper()
	for _, row := range plan.Rows {
		if isLocalRow(row) && row.LHR.Name == relation {
			return row
		}
	}
	t.Fatalf("no local row reads %s:\n%s", relation, matrixLines(plan))
	return Row{}
}

// TestNarrowThroughJoinsStarTexts: for scan-join's three texts and
// serve-mix's join text, FACT's local row carries exactly the columns the
// answer observes — never PAD, VAL or FK unless the text names them.
func TestNarrowThroughJoinsStarTexts(t *testing.T) {
	opts := starNarrowOptions(t)
	for _, tc := range []struct{ expr, fact string }{
		{`(PFACT [DK = DK] PDIM) [CAT, DCAT]`, "CAT DK"},
		{`((PFACT [MK = MK] PMID) [DK = DK] PDIM) [CAT, DCAT, GRADE]`, "CAT DK MK"},
		{`((PFACT [MK = MK] PMID) [DK = DK] PDIM) [DCAT, GRADE]`, "DK MK"},
		{`((PFACT [CAT = "cat1"]) [DK = DK] PDIM) [VAL, DCAT]`, "DK VAL"},
	} {
		plan := optimizeText(t, opts, tc.expr)
		cols := outputColumns(localRowOf(t, plan, "FACT"))
		if strings.Join(cols, " ") != tc.fact {
			t.Errorf("%s: FACT ships %v, want [%s]\n%s", tc.expr, cols, tc.fact, matrixLines(plan))
		}
		for _, dead := range []string{"PAD", "VAL", "FK"} {
			if slices.Contains(cols, dead) && !strings.Contains(tc.expr, dead) {
				t.Errorf("%s: FACT ships %s, which the text never reads", tc.expr, dead)
			}
		}
	}
}

// TestNarrowThroughJoinsExactShape pins two whole plans: the serve-mix join
// text gains a pushed Project behind its local selection, and a Product
// splits demand with no join columns (MID, of which nothing is read, keeps
// its retrieval).
func TestNarrowThroughJoinsExactShape(t *testing.T) {
	opts := starNarrowOptions(t)
	wantMatrix(t, optimizeText(t, opts, `((PFACT [CAT = "cat1"]) [DK = DK] PDIM) [VAL, DCAT]`),
		`R(1) | Select | FACT | CAT | = | "cat1" | nil | FD | push: [DK VAL]`,
		`R(2) | Retrieve | DIM | nil | nil | nil | nil | DD`,
		`R(3) | Join | R(1) | DK | = | DK | R(2) | PQP`,
		`R(4) | Project | R(3) | VAL, DCAT | nil | nil | nil | PQP`,
	)
	wantMatrix(t, optimizeText(t, opts, `(PDIM TIMES PMID) [DCAT]`),
		`R(1) | Project | DIM | DCAT | nil | nil | nil | DD`,
		`R(2) | Retrieve | MID | nil | nil | nil | nil | MD`,
		`R(3) | Product | R(1) | nil | nil | nil | R(2) | PQP`,
		`R(4) | Project | R(3) | DCAT | nil | nil | nil | PQP`,
	)
}

// TestNarrowThroughJoinsKeepsTotalDemand: where the output layout would
// rename a column — a non-natural join or a product whose inputs share a
// display name — or where no statistics give the inputs' layouts, demand
// through the join stays total and every source ships its full width.
func TestNarrowThroughJoinsKeepsTotalDemand(t *testing.T) {
	opts := starNarrowOptions(t)
	noStats := opts
	noStats.Stats = nil
	for _, tc := range []struct {
		opts Options
		expr string
	}{
		{opts, `(PFACT [MK = DK] PDIM) [CAT, DCAT]`},
		{opts, `(PFACT TIMES PMID) [CAT, GRADE]`},
		{noStats, `(PFACT [DK = DK] PDIM) [CAT, DCAT]`},
	} {
		plan := optimizeText(t, tc.opts, tc.expr)
		for _, row := range plan.Rows {
			if isLocalRow(row) && (row.Op != OpRetrieve || len(row.Pushed) > 0) {
				t.Errorf("%s: source narrowed under total demand: %s", tc.expr, row)
			}
		}
	}
}

// TestNarrowThroughMerge: each fragment of a Merge narrows to the demanded
// attributes plus the scheme key; a fragment that carries nothing else
// keeps its retrieval.
func TestNarrowThroughMerge(t *testing.T) {
	f := workload.New(workload.Config{Databases: 3, Entities: 30, Overlap: 0.5, Categories: 3, Seed: 1})
	cat, err := stats.Collect(f.LQPs())
	if err != nil {
		t.Fatal(err)
	}
	plan := optimizeText(t, Options{Schema: f.Schema, Stats: cat, CanPush: pushAll, ExactResolver: true},
		`(PENTITY [CAT = "cat1"]) [KEY, V0]`)
	for _, row := range plan.Rows {
		if !isLocalRow(row) {
			continue
		}
		want := []string{"CAT", "KEY"}
		if row.EL == "D0" {
			want = nil // CAT, KEY and V0 are the whole fragment
		}
		if got := outputColumns(row); !slices.Equal(got, want) {
			t.Errorf("fragment %s ships %v, want %v\n%s", row.EL, got, want, matrixLines(plan))
		}
	}
}

// TestNarrowThenReorder: join reordering runs after narrowing, on the
// narrowed layouts, and still fires where it did on full-width ones — here
// the bottom swap that builds the hash join over the smaller DIM and MID.
func TestNarrowThenReorder(t *testing.T) {
	opts := starNarrowOptions(t)
	wantMatrix(t, optimizeText(t, opts, `(PDIM [DK = DK] PFACT) [VAL, DCAT]`),
		`R(1) | Retrieve | DIM | nil | nil | nil | nil | DD`,
		`R(2) | Project | FACT | DK, VAL | nil | nil | nil | FD`,
		`R(3) | Join | R(2) | DK | = | DK | R(1) | PQP`,
		`R(4) | Project | R(3) | VAL, DCAT | nil | nil | nil | PQP`,
	)
	wantMatrix(t, optimizeText(t, opts, `(((PMID [MK = MK] PFACT) [DK = DK] PDIM) [VAL, DCAT, GRADE])`),
		`R(1) | Retrieve | MID | nil | nil | nil | nil | MD`,
		`R(2) | Project | FACT | DK, MK, VAL | nil | nil | nil | FD`,
		`R(3) | Retrieve | DIM | nil | nil | nil | nil | DD`,
		`R(4) | Join | R(2) | MK | = | MK | R(1) | PQP`,
		`R(5) | Join | R(4) | DK | = | DK | R(3) | PQP`,
		`R(6) | Project | R(5) | VAL, DCAT, GRADE | nil | nil | nil | PQP`,
	)
}
