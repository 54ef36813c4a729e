package pqp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
	"repro/internal/translate"
	"repro/internal/workload"
)

// This file is the differential property suite of column demand through
// joins: the optimizer narrows the sources of Join, θ-join, Product and
// Merge rows to the columns the answer can observe, and every such plan
// must answer exactly as the unoptimized plan and the Ref* oracle do —
// data, origin tags and intermediate tags, cell for cell — under both the
// exact and the case-folding resolver.

// narrowFed is one random federation for the property: a star federation
// and a PENTITY federation under one schema, with planted values that
// stress the LQP's exact duplicate elimination (NaN, −0 beside +0, Int(5)
// beside Float(5), nulls) and domain mappings on a join column, a
// projected column and a merged column.
type narrowFed struct {
	schema *core.Schema
	reg    *sourceset.Registry
	lqps   map[string]lqp.LQP
}

func newNarrowFed(seed int64) *narrowFed {
	rng := rand.New(rand.NewSource(seed))
	star := workload.NewStar(workload.StarConfig{
		Facts: 30 + rng.Intn(40), Dims: 3 + rng.Intn(6), Mids: 2 + rng.Intn(3),
		Categories: 2 + rng.Intn(3), Seed: seed,
	})
	planted := []rel.Value{
		rel.Float(math.Copysign(0, -1)), rel.Float(0), rel.Float(math.NaN()), rel.Float(math.NaN()),
		rel.Int(5), rel.Float(5), rel.Null(),
	}
	var rows []rel.Tuple
	for i, v := range planted {
		for _, dk := range []rel.Value{rel.String("D0000"), rel.String("D0001")} {
			rows = append(rows, rel.Tuple{
				rel.String(fmt.Sprintf("Z%03d", len(rows))), dk, rel.String(fmt.Sprintf("M%04d", i%2)),
				rel.String("cat1"), v, rel.String(fmt.Sprintf("zpad-%d", len(rows))),
			})
		}
	}
	rows = append(rows, rel.Tuple{rel.String("Z999"), rel.Null(), rel.String("M0000"), rel.String("cat1"), rel.Int(7), rel.String("zpad-null")})
	if err := star.FD.Insert("FACT", rows...); err != nil {
		panic(err)
	}
	ent := workload.New(workload.Config{
		Databases: 2 + rng.Intn(2), Entities: 20 + rng.Intn(20), Overlap: 0.6,
		Categories: 3, ConflictRate: 0.2, Seed: seed,
	})

	scheme := func(name string) *core.Scheme {
		s, _ := star.Schema.Scheme(name)
		return s
	}
	fed := &narrowFed{
		schema: core.MustSchema(scheme("PFACT"), scheme("PDIM"), scheme("PMID"), ent.Scheme),
		reg:    sourceset.NewRegistry(),
		lqps:   star.LQPs(),
	}
	for db, l := range ent.LQPs() {
		fed.lqps[db] = l
	}
	for db := range fed.lqps {
		fed.reg.Intern(db)
	}
	// MK is a join column: M0002 and M0003 join MID's M0000 and M0001.
	fed.schema.DomainMap.Set("FD", "FACT", "MK", func(v rel.Value) rel.Value {
		if v.Kind() == rel.KindString && (v.Str() == "M0002" || v.Str() == "M0003") {
			return rel.String(fmt.Sprintf("M%04d", int(v.Str()[4]-'2')))
		}
		return v
	})
	// DCAT collapses dcat3/dcat4 onto dcat0/dcat1: raw values the LQP
	// keeps apart become duplicates at the PQP.
	fed.schema.DomainMap.Set("DD", "DIM", "DCAT", func(v rel.Value) rel.Value {
		if v.Kind() == rel.KindString && (v.Str() == "dcat3" || v.Str() == "dcat4") {
			return rel.String(fmt.Sprintf("dcat%d", int(v.Str()[4]-'3')))
		}
		return v
	})
	// D1's categories arrive upper-cased: one datum under CaseFold, a
	// conflict under Exact.
	fed.schema.DomainMap.Set("D1", "FRAG", "CAT", func(v rel.Value) rel.Value {
		if v.Kind() == rel.KindString {
			return rel.String(strings.ToUpper(v.Str()))
		}
		return v
	})
	return fed
}

// narrowFixedTexts run on every federation: the scan-join and serve-mix
// join texts, planted-value columns behind a join, the renaming fallback,
// a ≠-join, a Product, and Merges narrowed alone and under a join.
var narrowFixedTexts = []string{
	`(PFACT [DK = DK] PDIM) [CAT, DCAT]`,
	`((PFACT [MK = MK] PMID) [DK = DK] PDIM) [CAT, DCAT, GRADE]`,
	`((PFACT [MK = MK] PMID) [DK = DK] PDIM) [DCAT, GRADE]`,
	`((PFACT [CAT = "cat1"]) [DK = DK] PDIM) [VAL, DCAT]`,
	`(PFACT [DK = DK] PDIM) [VAL]`,
	`((PFACT [VAL >= 5] [MK = MK] PMID) [DK = DK] PDIM) [VAL, GRADE]`,
	`(PFACT [MK = DK] PDIM) [CAT, DCAT]`,
	`(PDIM [DK <> DK] PFACT) [DCAT, VAL]`,
	`(PMID [GRADE < DCAT] PDIM) [MK, DCAT]`,
	`(PDIM TIMES PMID) [DCAT]`,
	`(PENTITY [CAT = "cat1"]) [KEY, CAT, V0]`,
	`(PENTITY) [V1]`,
	`(PENTITY [CAT = CAT] PFACT) [KEY, VAL]`,
	`(((PENTITY [CAT = CAT] PFACT) [DK = DK] PDIM) [DCAT = "dcat0"]) [V0, DK]`,
}

// narrowLeaves are the random trees' operands with their polygen names.
var narrowLeaves = []struct {
	text  string
	names []string
	big   bool
}{
	{`PFACT`, []string{"FK", "DK", "MK", "CAT", "VAL", "PAD"}, true},
	{`(PFACT [CAT = "cat1"])`, []string{"FK", "DK", "MK", "CAT", "VAL", "PAD"}, true},
	{`(PFACT [VAL >= 5000])`, []string{"FK", "DK", "MK", "CAT", "VAL", "PAD"}, true},
	{`PDIM`, []string{"DK", "DCAT"}, false},
	{`(PDIM [DCAT = "dcat0"])`, []string{"DK", "DCAT"}, false},
	{`PMID`, []string{"MK", "GRADE"}, false},
	{`PENTITY`, []string{"KEY", "CAT", "V0", "V1"}, true},
	{`(PENTITY [CAT = "cat1"])`, []string{"KEY", "CAT", "V0", "V1"}, true},
}

// narrowTree is a generated subexpression: its text, the names it can
// resolve, and how many big (fact- or entity-sized) operands it
// multiplies without a key join.
type narrowTree struct {
	text  string
	names []string
	cross int
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func randomNarrowLeaf(rng *rand.Rand) narrowTree {
	l := pick(rng, narrowLeaves)
	t := narrowTree{text: l.text, names: l.names}
	if l.big {
		t.cross = 1
	}
	return t
}

// randomNarrowText draws a tree of one to three operands combined by
// equi-joins, θ-joins and Products (some projected midway), under an
// optional selection or restriction and an optional top projection.
func randomNarrowText(rng *rand.Rand) string {
	t := randomNarrowLeaf(rng)
	for n := rng.Intn(3); n > 0; n-- {
		o := randomNarrowLeaf(rng)
		if rng.Intn(2) == 0 {
			t, o = o, t
		}
		var shared []string
		for _, a := range t.names {
			for _, b := range o.names {
				if a == b {
					shared = append(shared, a)
				}
			}
		}
		names := append(append([]string(nil), t.names...), o.names...)
		switch k := rng.Intn(10); {
		case k < 6 && len(shared) > 0:
			x := pick(rng, shared)
			t = narrowTree{text: fmt.Sprintf("(%s [%s = %s] %s)", t.text, x, x, o.text), names: names, cross: max(t.cross, o.cross)}
		case k < 8 && t.cross+o.cross <= 1:
			theta := pick(rng, []string{"=", "<>", "<", ">="})
			t = narrowTree{text: fmt.Sprintf("(%s [%s %s %s] %s)", t.text, pick(rng, t.names), theta, pick(rng, o.names), o.text), names: names, cross: t.cross + o.cross}
		case t.cross+o.cross <= 1:
			t = narrowTree{text: fmt.Sprintf("(%s TIMES %s)", t.text, o.text), names: names, cross: t.cross + o.cross}
		default:
			continue
		}
		if rng.Intn(5) == 0 {
			t.names = randomSubset(rng, t.names)
			t.text = fmt.Sprintf("(%s [%s])", t.text, strings.Join(t.names, ", "))
		}
	}
	switch rng.Intn(4) {
	case 0:
		a := pick(rng, t.names)
		c := map[string]string{"CAT": `"cat1"`, "DCAT": `"dcat0"`, "GRADE": `"grade1"`, "VAL": "5000"}[a]
		if c == "" {
			c = `"D0001"`
		}
		t.text = fmt.Sprintf("(%s [%s >= %s])", t.text, a, c)
	case 1:
		t.text = fmt.Sprintf("(%s [%s = %s])", t.text, pick(rng, t.names), pick(rng, t.names))
	}
	if rng.Intn(7) != 0 {
		t.text = fmt.Sprintf("%s [%s]", t.text, strings.Join(randomSubset(rng, t.names), ", "))
	}
	return t.text
}

// randomSubset draws one to three distinct names.
func randomSubset(rng *rand.Rand, names []string) []string {
	var out []string
	seen := make(map[string]bool)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if a := pick(rng, names); !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// checkNarrowed runs one text optimized and unoptimized and checks both
// answers against each other and both plans against the Ref* oracle. A
// text the unoptimized plan rejects (an unresolvable generated name) is
// skipped; the optimized plan must then reject it too. It reports whether
// the optimized plan narrowed a local row that feeds a Join, Product or
// Merge.
func checkNarrowed(t *testing.T, q *PQP, text string) (narrowed, ran bool) {
	t.Helper()
	q.Optimize = false
	ref, refErr := q.QueryAlgebra(text)
	q.Optimize = true
	opt, optErr := q.QueryAlgebra(text)
	if refErr != nil {
		if optErr == nil {
			t.Errorf("%s: unoptimized plan fails (%v), optimized plan answers", text, refErr)
		}
		return false, false
	}
	if optErr != nil {
		t.Errorf("%s: optimized plan fails: %v", text, optErr)
		return false, true
	}
	if fmt.Sprint(opt.Relation.AttrNames()) != fmt.Sprint(ref.Relation.AttrNames()) {
		t.Errorf("%s: optimized layout %v, unoptimized %v", text, opt.Relation.AttrNames(), ref.Relation.AttrNames())
	}
	diffRows(t, text+" [optimized vs unoptimized]\n"+opt.Plan.String(), renderSorted(opt.Relation), renderSorted(ref.Relation))
	wantReference(t, q, text+" [unoptimized plan]", ref.Plan, ref.Relation)
	wantReference(t, q, text+" [optimized plan]", opt.Plan, opt.Relation)
	return narrowsUnderJoin(opt.Plan), true
}

// narrowsUnderJoin reports whether a plan carries a narrowed local row —
// a local Project, or a pushed Project step — consumed by a Join, Product
// or Merge row.
func narrowsUnderJoin(plan *translate.Matrix) bool {
	narrowed := make(map[int]bool)
	for _, row := range plan.Rows {
		if row.EL == "PQP" {
			switch row.Op {
			case translate.OpJoin, translate.OpProduct:
				if narrowed[row.LHR.Reg] || narrowed[row.RHR.Reg] {
					return true
				}
			case translate.OpMerge:
				for _, r := range row.LHR.Regs {
					if narrowed[r] {
						return true
					}
				}
			}
			continue
		}
		pushed := false
		for _, op := range row.Pushed {
			pushed = pushed || op.Kind == lqp.OpProject
		}
		narrowed[row.PR] = row.Op == translate.OpProject || pushed
	}
	return false
}

// FuzzNarrowedPlansMatchReference is the property: per seed, a random
// federation answers the fixed texts and ten random ones identically
// through optimized plans, unoptimized plans and the Ref* oracle, under
// the exact and the case-folding resolver. Every fixed text must run, and
// the scan-join text and the first Merge text must actually narrow a
// source under the join or merge, so the property cannot hold vacuously.
func FuzzNarrowedPlansMatchReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fed := newNarrowFed(seed)
		rng := rand.New(rand.NewSource(seed))
		texts := append([]string(nil), narrowFixedTexts...)
		for i := 0; i < 10; i++ {
			texts = append(texts, randomNarrowText(rng))
		}
		for _, res := range []identity.Resolver{identity.Exact{}, identity.CaseFold{}} {
			q := New(fed.schema, fed.reg, res, fed.lqps)
			if err := q.CollectStats(); err != nil {
				t.Fatal(err)
			}
			for i, text := range texts {
				narrowed, ran := checkNarrowed(t, q, text)
				if i < len(narrowFixedTexts) && !ran {
					t.Errorf("%s: fixed text rejected by the unoptimized plan", text)
				}
				if (i == 0 || i == 10) && !narrowed {
					t.Errorf("%s: no source narrowed under the join or merge", text)
				}
			}
		}
	})
}
