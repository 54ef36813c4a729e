package lqp

import (
	"io"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rel"
)

func planDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase("XD")
	db.MustCreate("T", rel.SchemaOf("K", "C", "V"), "K")
	rows := make([]rel.Tuple, 0, 600)
	for i := 0; i < 600; i++ {
		cat := "a"
		if i%3 == 0 {
			cat = "b"
		}
		rows = append(rows, rel.Tuple{rel.Int(int64(i)), rel.String(cat), rel.Int(int64(i * 2))})
	}
	if err := db.Insert("T", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPlanValidateAndString(t *testing.T) {
	p := PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V"))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != `T[C = "b"][V]` {
		t.Errorf("plan renders %q", got)
	}
	if !p.Mediates() {
		t.Error("plan with a pushed Select must mediate")
	}
	if PlanOf(Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V")).Mediates() {
		t.Error("base Select must not mediate (only pushed steps do)")
	}
	if err := (Plan{}).Validate(); err == nil {
		t.Error("empty plan accepted")
	}
	if err := (Plan{Ops: []Op{{Kind: OpRetrieve}}}).Validate(); err == nil {
		t.Error("plan without a base relation accepted")
	}
	for _, bad := range []Plan{
		PlanOf(Project("T", "V", "C", "V")),
		PlanOf(Retrieve("T"), Project("T", "V", "V")),
		PlanOf(Retrieve("T"), Retrieve("T")),
		PlanOf(Op{Kind: OpKind(99), Relation: "T"}),
	} {
		err := bad.Validate()
		if err == nil {
			t.Errorf("%s: accepted", bad)
		} else if bad.Ops[len(bad.Ops)-1].Kind == OpProject && !strings.Contains(err.Error(), `"V"`) {
			t.Errorf("%s: error %q does not name the repeated attribute", bad, err)
		}
	}
}

// TestPlanIgnoresFieldsItsKindDoesNotRead: a field that an op's kind never
// reads may carry anything (a tracing harness rides a span reference in
// one), and neither Validate nor the evaluator looks at it.
func TestPlanIgnoresFieldsItsKindDoesNotRead(t *testing.T) {
	db := planDB(t)
	l := NewLocal(db)
	tag := "\x00tag"
	for _, p := range []Plan{
		PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b"))),
		PlanOf(Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "C", "V")),
		PlanOf(Restrict("T", "K", rel.ThetaLT, "V"), Project("T", "C")),
		PlanOf(Project("T", "C", "V")),
	} {
		tagged := Plan{Ops: append([]Op(nil), p.Ops...)}
		for i := range tagged.Ops {
			if tagged.Ops[i].Kind == OpRestrict {
				tagged.Ops[i].Attrs = []string{tag, tag}
			} else {
				tagged.Ops[i].Attr2 = tag
			}
		}
		got, err := drainOpen(l.OpenPlan(tagged))
		if err != nil {
			t.Fatalf("%s tagged: %v", p, err)
		}
		sameRows(t, p.String(), got, stepwise(t, db, p))
	}
}

// stepwise evaluates a plan the unfused way: the base relation from the
// catalog, then every op with the naive untagged operators below.
func stepwise(t *testing.T, db *catalog.Database, p Plan) *rel.Relation {
	t.Helper()
	r, err := db.Snapshot(p.Relation())
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		i, err := r.Col(name)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSelect:
			ci, theta, c := col(op.Attr), op.Theta, op.Const
			r = naiveFilter(r, func(tu rel.Tuple) bool { return theta.Eval(tu[ci], c) })
		case OpRestrict:
			xi, yi, theta := col(op.Attr), col(op.Attr2), op.Theta
			r = naiveFilter(r, func(tu rel.Tuple) bool { return theta.Eval(tu[xi], tu[yi]) })
		case OpProject:
			r = naiveProject(t, r, op.Attrs)
		}
	}
	return r
}

// The naive untagged operators are the oracle the evaluator is checked
// against. Row identity is the Value.Key rendering (Tuple.Key), so they
// share nothing with rel.BucketIndex or Hash64, which the evaluator uses.

// naiveFilter keeps the rows for which keep holds.
func naiveFilter(r *rel.Relation, keep func(rel.Tuple) bool) *rel.Relation {
	out := rel.NewRelation("", r.Schema)
	for _, tu := range r.Tuples {
		if keep(tu) {
			out.Tuples = append(out.Tuples, tu)
		}
	}
	return out
}

// naiveProject narrows r to attrs, keeping the first occurrence of every
// distinct projected row, in input order.
func naiveProject(t *testing.T, r *rel.Relation, attrs []string) *rel.Relation {
	t.Helper()
	cols := make([]int, len(attrs))
	out := make([]rel.Attr, len(attrs))
	for i, a := range attrs {
		ci, err := r.Col(a)
		if err != nil {
			t.Fatal(err)
		}
		cols[i], out[i] = ci, r.Schema.Attr(ci)
	}
	res := rel.NewRelation("", rel.NewSchema(out...))
	seen := make(map[string]bool)
	for _, tu := range r.Tuples {
		row := make(rel.Tuple, len(cols))
		for i, ci := range cols {
			row[i] = tu[ci]
		}
		if k := row.Key(); !seen[k] {
			seen[k] = true
			res.Tuples = append(res.Tuples, row)
		}
	}
	return res
}

// sameRows fails unless got and want agree in schema and row for row.
func sameRows(t *testing.T, label string, got, want *rel.Relation) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: result %s×%d, want %s×%d", label, got.Schema, len(got.Tuples), want.Schema, len(want.Tuples))
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Identical(want.Tuples[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// TestLocalExecutePlanMatchesStepwise: the fused, streamed pipeline equals
// the step-by-step composition over the in-process relation.
func TestLocalExecutePlanMatchesStepwise(t *testing.T) {
	db := planDB(t)
	p := PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("b")), Project("T", "V"))
	got, err := drainOpen(NewLocal(db).OpenPlan(p))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, p.String(), got, stepwise(t, db, p))
}

// projectDB holds a relation whose projections collapse many rows onto few
// values, so a Project in mid-plan actually eliminates duplicates.
func projectDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase("PD")
	db.MustCreate("T", rel.SchemaOf("K", "C", "A", "B"), "K")
	rows := make([]rel.Tuple, 0, 900)
	for i := 0; i < 900; i++ {
		rows = append(rows, rel.Tuple{rel.Int(int64(i)), rel.String(string(rune('a' + i%3))), rel.Int(int64(i % 7)), rel.Int(int64(i % 5))})
	}
	if err := db.Insert("T", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

// filterAfterProjectPlans are pushed plans whose filters run after a
// Project: the steps that continue over the projected rows.
func filterAfterProjectPlans() []Plan {
	return []Plan{
		PlanOf(Retrieve("T"), Project("T", "C", "A"), Select("T", "A", rel.ThetaLT, rel.Int(4))),
		PlanOf(Retrieve("T"), Project("T", "C", "A", "B"), Restrict("T", "A", rel.ThetaGT, "B"), Project("T", "C", "B")),
		PlanOf(Select("T", "C", rel.ThetaNE, rel.String("b")), Project("T", "A", "B"), Select("T", "B", rel.ThetaGE, rel.Int(2)), Project("T", "A")),
	}
}

// TestLocalOpenPlanFiltersAfterProject: Select and Restrict steps after a
// Project filter the projected, deduplicated rows.
func TestLocalOpenPlanFiltersAfterProject(t *testing.T) {
	db := projectDB(t)
	l := NewLocal(db)
	for _, p := range filterAfterProjectPlans() {
		got, err := drainOpen(l.OpenPlan(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		want := stepwise(t, db, p)
		if len(want.Tuples) == 0 {
			t.Fatalf("%s: empty reference answer proves nothing", p)
		}
		sameRows(t, p.String(), got, want)
	}
	// A missing attribute in a step after the Project fails at open.
	bad := PlanOf(Retrieve("T"), Project("T", "C"), Select("T", "A", rel.ThetaEQ, rel.Int(1)))
	if _, err := l.OpenPlan(bad); err == nil {
		t.Errorf("%s: selecting a projected-away attribute must fail", bad)
	}
}

// TestOpenPlanFilterOnlyStreams: a filter-only plan streams without
// materializing (cursor yields multiple batches).
func TestOpenPlanFilterOnlyStreams(t *testing.T) {
	l := NewLocal(planDB(t))
	cur, err := l.OpenPlan(PlanOf(Retrieve("T"), Select("T", "C", rel.ThetaEQ, rel.String("a"))))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := 0
	for {
		batch, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += len(batch)
	}
	if rows != 400 {
		t.Errorf("filtered stream yielded %d rows, want 400", rows)
	}
}
