package rel

import (
	"strings"
	"testing"
)

func TestNewSchema(t *testing.T) {
	s := SchemaOf("A", "B", "C")
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Index("B") != 1 || s.Index("Z") != -1 {
		t.Error("Index lookup wrong")
	}
	if !s.Has("C") || s.Has("D") {
		t.Error("Has wrong")
	}
	if got := s.String(); got != "(A, B, C)" {
		t.Errorf("String = %q", got)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Errorf("Names = %v", names)
	}
}

func TestNewSchemaDuplicatePanics(t *testing.T) {
	if _, err := MakeSchema(Attr{Name: "A"}, Attr{Name: "B"}, Attr{Name: "A"}); err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Errorf("MakeSchema of a repeated attribute: %v, want an error naming it", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate attribute did not panic")
		}
	}()
	NewSchema(Attr{Name: "A"}, Attr{Name: "A"})
}

func TestSchemaEqual(t *testing.T) {
	a := SchemaOf("X", "Y")
	b := SchemaOf("X", "Y")
	c := SchemaOf("Y", "X")
	d := SchemaOf("X")
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	if a.Equal(c) {
		t.Error("reordered schemas Equal")
	}
	if a.Equal(d) {
		t.Error("different-degree schemas Equal")
	}
}

func TestTupleKeyAndEqual(t *testing.T) {
	t1 := Tuple{String("a"), Int(1)}
	t2 := Tuple{String("a"), Int(1)}
	t3 := Tuple{String("a"), Int(2)}
	t4 := Tuple{String("a")}
	if t1.Key() != t2.Key() {
		t.Error("equal tuples have different keys")
	}
	if t1.Key() == t3.Key() {
		t.Error("different tuples share a key")
	}
	if !t1.Equal(t2) || t1.Equal(t3) || t1.Equal(t4) {
		t.Error("Tuple.Equal wrong")
	}
	// Keys must not collide across arity boundaries ("ab","c" vs "a","bc").
	if (Tuple{String("ab"), String("c")}).Key() == (Tuple{String("a"), String("bc")}).Key() {
		t.Error("tuple key collides across cell boundaries")
	}
}

func TestTupleClone(t *testing.T) {
	t1 := Tuple{String("a"), Int(1)}
	c := t1.Clone()
	c[0] = String("b")
	if t1[0].Str() != "a" {
		t.Error("Clone aliases the original")
	}
}

func TestRelationAppend(t *testing.T) {
	r := NewRelation("T", SchemaOf("A", "B"))
	if err := r.Append(Tuple{Int(1), Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(Tuple{Int(1)}); err == nil {
		t.Error("degree mismatch accepted")
	}
	if r.Cardinality() != 1 || r.Degree() != 2 {
		t.Errorf("Cardinality/Degree = %d/%d", r.Cardinality(), r.Degree())
	}
}

func TestRelationMustAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAppend with wrong degree did not panic")
		}
	}()
	r := NewRelation("T", SchemaOf("A"))
	r.MustAppend(Int(1), Int(2))
}

func TestRelationClone(t *testing.T) {
	r := NewRelation("T", SchemaOf("A"))
	r.MustAppend(String("x"))
	c := r.Clone()
	c.Tuples[0][0] = String("y")
	if r.Tuples[0][0].Str() != "x" {
		t.Error("Clone aliases tuples")
	}
}

func TestRelationCol(t *testing.T) {
	r := NewRelation("T", SchemaOf("A", "B"))
	if i, err := r.Col("B"); err != nil || i != 1 {
		t.Errorf("Col(B) = %d, %v", i, err)
	}
	if _, err := r.Col("Z"); err == nil {
		t.Error("Col(Z) should fail")
	} else if !strings.Contains(err.Error(), "\"T\"") {
		t.Errorf("error should name the relation: %v", err)
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation("T", SchemaOf("A", "B"))
	r.MustAppend(String("x"), Null())
	s := r.String()
	if !strings.Contains(s, "T(A, B)") || !strings.Contains(s, "x | nil") {
		t.Errorf("String = %q", s)
	}
}
