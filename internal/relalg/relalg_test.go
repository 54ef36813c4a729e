package relalg

import (
	"testing"

	"repro/internal/rel"
)

func mk(name string, attrs []string, rows ...[]any) *rel.Relation {
	r := rel.NewRelation(name, rel.SchemaOf(attrs...))
	for _, row := range rows {
		t := make(rel.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case string:
				t[i] = rel.String(x)
			case int:
				t[i] = rel.Int(int64(x))
			case float64:
				t[i] = rel.Float(x)
			case nil:
				t[i] = rel.Null()
			default:
				panic("unsupported literal")
			}
		}
		if err := r.Append(t); err != nil {
			panic(err)
		}
	}
	return r
}

func rows(r *rel.Relation) []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		s := ""
		for i, v := range t {
			if i > 0 {
				s += "|"
			}
			s += v.String()
		}
		out = append(out, s)
	}
	return out
}

func wantRows(t *testing.T, r *rel.Relation, want ...string) {
	t.Helper()
	got := rows(r)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d rows %v", len(got), got, len(want), want)
	}
	seen := make(map[string]int)
	for _, g := range got {
		seen[g]++
	}
	for _, w := range want {
		if seen[w] == 0 {
			t.Errorf("missing row %q in %v", w, got)
		}
		seen[w]--
	}
}

func people() *rel.Relation {
	return mk("P", []string{"ID", "NAME", "AGE"},
		[]any{1, "ann", 30},
		[]any{2, "bob", 25},
		[]any{3, "cat", 30},
	)
}

func TestSelect(t *testing.T) {
	r, err := Select(people(), "AGE", rel.ThetaEQ, rel.Int(30))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, r, "1|ann|30", "3|cat|30")
	if _, err := Select(people(), "ZZZ", rel.ThetaEQ, rel.Int(0)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestSelectThetaVariants(t *testing.T) {
	lt, _ := Select(people(), "AGE", rel.ThetaLT, rel.Int(30))
	wantRows(t, lt, "2|bob|25")
	ge, _ := Select(people(), "AGE", rel.ThetaGE, rel.Int(30))
	wantRows(t, ge, "1|ann|30", "3|cat|30")
	ne, _ := Select(people(), "NAME", rel.ThetaNE, rel.String("ann"))
	wantRows(t, ne, "2|bob|25", "3|cat|30")
}

func TestRestrict(t *testing.T) {
	r := mk("R", []string{"A", "B"},
		[]any{1, 1}, []any{1, 2}, []any{3, 3},
	)
	eq, err := Restrict(r, "A", rel.ThetaEQ, "B")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, eq, "1|1", "3|3")
	if _, err := Restrict(r, "A", rel.ThetaEQ, "Z"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestProjectDeduplicates(t *testing.T) {
	r, err := Project(people(), []string{"AGE"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, r, "30", "25")
	if r.Schema.Len() != 1 || r.Schema.Attr(0).Name != "AGE" {
		t.Errorf("schema = %v", r.Schema)
	}
}

func TestProjectReorders(t *testing.T) {
	r, err := Project(people(), []string{"NAME", "ID"})
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, r, "ann|1", "bob|2", "cat|3")
}

func TestUnion(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1}, []any{2})
	b := mk("B", []string{"X"}, []any{2}, []any{3})
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, u, "1", "2", "3")
	if _, err := Union(a, people()); err == nil {
		t.Error("degree mismatch accepted")
	}
}

func TestDifference(t *testing.T) {
	a := mk("A", []string{"X"}, []any{1}, []any{2}, []any{2}, []any{3})
	b := mk("B", []string{"X"}, []any{2})
	d, err := Difference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, d, "1", "3")
	if _, err := Difference(a, people()); err == nil {
		t.Error("degree mismatch accepted")
	}
}
