package vtab

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/rel"
	"repro/internal/wire"
)

func TestTableNames(t *testing.T) {
	names := TableNames()
	want := []string{"V$SESSION", "V$STMT", "V$PLAN_CACHE", "V$SOURCE_STATS", "V$FAULT", "V$SHARD", "V$STORE", "V$MEM"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("TableNames() = %v, want %v", names, want)
	}
}

// TestSchemes checks every virtual scheme maps its attributes 1:1 onto V$
// local attributes of the same name, keyed by the first column.
func TestSchemes(t *testing.T) {
	schemes := Schemes()
	if len(schemes) != len(specs) {
		t.Fatalf("Schemes() returned %d schemes, want %d", len(schemes), len(specs))
	}
	for i, sc := range schemes {
		sp := specs[i]
		if sc.Name != sp.name {
			t.Errorf("scheme %d name %q, want %q", i, sc.Name, sp.name)
		}
		if sc.Key != sp.columns[0] {
			t.Errorf("%s key %q, want first column %q", sc.Name, sc.Key, sp.columns[0])
		}
		if len(sc.Attrs) != len(sp.columns) {
			t.Fatalf("%s has %d attrs, want %d", sc.Name, len(sc.Attrs), len(sp.columns))
		}
		for j, a := range sc.Attrs {
			if a.Name != sp.columns[j] {
				t.Errorf("%s attr %d name %q, want %q", sc.Name, j, a.Name, sp.columns[j])
			}
			if len(a.Mapping) != 1 {
				t.Fatalf("%s.%s has %d mappings, want 1", sc.Name, a.Name, len(a.Mapping))
			}
			m := a.Mapping[0]
			if m.DB != SourceName || m.Scheme != sp.name || m.Attr != a.Name {
				t.Errorf("%s.%s maps to %v, want {%s %s %s}", sc.Name, a.Name, m, SourceName, sp.name, a.Name)
			}
		}
	}
}

func TestAugmentSchemaRejectsClash(t *testing.T) {
	base := core.MustSchema(&core.Scheme{
		Name: "V$PLAN_CACHE",
		Key:  "X",
		Attrs: []core.PolygenAttr{{
			Name:    "X",
			Mapping: []core.LocalAttr{{DB: "D", Scheme: "R", Attr: "X"}},
		}},
	})
	if _, err := AugmentSchema(base); err == nil {
		t.Fatal("AugmentSchema accepted a base schema that already defines V$PLAN_CACHE")
	}
}

// drainOpen drains an opened operation or plan into a relation.
func drainOpen(cur rel.Cursor, err error) (*rel.Relation, error) {
	if err != nil {
		return nil, err
	}
	return rel.Drain(cur)
}

// TestUnboundTablesServeEmpty: a Tables before Bind answers every scan with
// the right columns and no rows.
func TestUnboundTablesServeEmpty(t *testing.T) {
	vt := New()
	for _, sp := range specs {
		r, err := drainOpen(vt.Open(lqp.Retrieve(sp.name)))
		if err != nil {
			t.Fatalf("Open(%s): %v", sp.name, err)
		}
		if got := r.Schema.Len(); got != len(sp.columns) {
			t.Errorf("%s has %d columns, want %d", sp.name, got, len(sp.columns))
		}
		if len(r.Tuples) != 0 {
			t.Errorf("%s unbound has %d rows, want 0", sp.name, len(r.Tuples))
		}
	}
	if _, err := drainOpen(vt.Open(lqp.Retrieve("V$NOPE"))); err == nil {
		t.Error("Open(V$NOPE) succeeded, want error")
	}
}

// TestSnapshotImmutable: a cursor opened over a V$ table streams the
// snapshot taken at Open time, untouched by later mediator activity.
func TestSnapshotImmutable(t *testing.T) {
	h := newHarness(t, mediator.Config{Federation: "test"})
	info, err := h.svc.OpenSession(wire.SessionOptions{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	q := harnessQueries()[0]
	if _, err := h.svc.Query(info.ID, q, true); err != nil {
		t.Fatalf("Query: %v", err)
	}

	cur, err := h.vt.Open(lqp.Retrieve("V$STMT"))
	if err != nil {
		t.Fatalf("Open(V$STMT): %v", err)
	}
	// Mutate hard after the snapshot: more statements on the same session.
	for i := 0; i < 5; i++ {
		if _, err := h.svc.Query(info.ID, q, true); err != nil {
			t.Fatalf("Query %d: %v", i, err)
		}
	}
	rows := drainRel(t, cur)
	if len(rows) != 1 {
		t.Fatalf("V$STMT cursor saw %d rows, want the 1 statement present at Open time", len(rows))
	}

	// And an already-materialized snapshot never changes either.
	before, err := drainOpen(h.vt.Open(lqp.Retrieve("V$SESSION")))
	if err != nil {
		t.Fatalf("Open(V$SESSION): %v", err)
	}
	wantQueries := before.Tuples[0][3].IntVal()
	if _, err := h.svc.Query(info.ID, q, true); err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := before.Tuples[0][3].IntVal(); got != wantQueries {
		t.Fatalf("materialized snapshot mutated: QUERIES %d -> %d", wantQueries, got)
	}
}

// TestSelectProjectPushdown: Select/Project ops against V$ tables evaluate
// like against any local source (the lqp.Local delegation path).
func TestSelectProjectPushdown(t *testing.T) {
	h := newHarness(t, mediator.Config{})
	info, err := h.svc.OpenSession(wire.SessionOptions{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if _, err := h.svc.Query(info.ID, harnessQueries()[0], true); err != nil {
		t.Fatalf("Query: %v", err)
	}

	r, err := drainOpen(h.vt.Open(lqp.Select("V$SESSION", "SID", rel.ThetaEQ, rel.String(info.ID))))
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(r.Tuples) != 1 {
		t.Fatalf("Select(SID = %s) returned %d rows, want 1", info.ID, len(r.Tuples))
	}
	r, err = drainOpen(h.vt.Open(lqp.Select("V$SESSION", "SID", rel.ThetaEQ, rel.String("no-such-session"))))
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(r.Tuples) != 0 {
		t.Fatalf("Select(no-such-session) returned %d rows, want 0", len(r.Tuples))
	}

	r, err = drainOpen(h.vt.Open(lqp.Project("V$PLAN_CACHE", "CAPACITY", "ENTRIES")))
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if r.Schema.Len() != 2 || len(r.Tuples) != 1 {
		t.Fatalf("Project(V$PLAN_CACHE) = %d cols x %d rows, want 2x1", r.Schema.Len(), len(r.Tuples))
	}
	if capacity := r.Tuples[0][0].IntVal(); capacity != 32 {
		t.Errorf("V$PLAN_CACHE CAPACITY = %d, want the harness's 32", capacity)
	}
}

// TestStatsProvider: Stats reports every table with its
// schema-order columns and current cardinality.
func TestStatsProvider(t *testing.T) {
	h := newHarness(t, mediator.Config{})
	if _, err := h.svc.OpenSession(wire.SessionOptions{}); err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	st, err := h.vt.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(st) != len(specs) {
		t.Fatalf("Stats() reported %d relations, want %d", len(st), len(specs))
	}
	byName := make(map[string]lqp.RelationStats, len(st))
	for _, s := range st {
		byName[s.Name] = s
	}
	for _, sp := range specs {
		s, ok := byName[sp.name]
		if !ok {
			t.Errorf("Stats() missing %s", sp.name)
			continue
		}
		if !reflect.DeepEqual(s.Columns, sp.columns) {
			t.Errorf("%s columns %v, want %v", sp.name, s.Columns, sp.columns)
		}
	}
	if byName["V$SESSION"].Rows != 1 {
		t.Errorf("V$SESSION cardinality %d, want 1 open session", byName["V$SESSION"].Rows)
	}
	if byName["V$PLAN_CACHE"].Rows != 1 {
		t.Errorf("V$PLAN_CACHE cardinality %d, want 1", byName["V$PLAN_CACHE"].Rows)
	}
}

// drainRel drains an untagged local cursor into its rows.
func drainRel(t *testing.T, cur rel.Cursor) []rel.Tuple {
	t.Helper()
	defer cur.Close()
	var out []rel.Tuple
	for {
		batch, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("draining: %v", err)
		}
		out = append(out, batch...)
	}
	return out
}
