package lqp

import (
	"io"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rel"
	"repro/internal/relalg"
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
}

// stepwise evaluates a plan the unfused way: the base relation from the
// catalog, then every op with the untagged relational algebra.
func stepwise(t *testing.T, db *catalog.Database, p Plan) *rel.Relation {
	t.Helper()
	r, err := db.Snapshot(p.Relation())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSelect:
			r, err = relalg.Select(r, op.Attr, op.Theta, op.Const)
		case OpRestrict:
			r, err = relalg.Restrict(r, op.Attr, op.Theta, op.Attr2)
		case OpProject:
			r, err = relalg.Project(r, op.Attrs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
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
