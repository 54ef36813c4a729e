package lqp

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rel"
)

func testDB() *catalog.Database {
	db := catalog.NewDatabase("AD")
	db.MustCreate("ALUMNUS", rel.SchemaOf("AID#", "ANAME", "DEG"), "AID#")
	for _, r := range [][3]string{
		{"012", "John McCauley", "MBA"},
		{"123", "Bob Swanson", "MBA"},
		{"345", "James Yao", "BS"},
	} {
		if err := db.Insert("ALUMNUS", rel.Tuple{rel.String(r[0]), rel.String(r[1]), rel.String(r[2])}); err != nil {
			panic(err)
		}
	}
	return db
}

// drainOpen drains an opened operation or plan into a relation.
func drainOpen(cur rel.Cursor, err error) (*rel.Relation, error) {
	if err != nil {
		return nil, err
	}
	return rel.Drain(cur)
}

func TestLocalName(t *testing.T) {
	l := NewLocal(testDB())
	if l.Name() != "AD" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestLocalRelations(t *testing.T) {
	l := NewLocal(testDB())
	rels, err := l.Relations()
	if err != nil || len(rels) != 1 || rels[0] != "ALUMNUS" {
		t.Errorf("Relations = %v, %v", rels, err)
	}
}

func TestLocalRetrieve(t *testing.T) {
	l := NewLocal(testDB())
	r, err := drainOpen(l.Open(Retrieve("ALUMNUS")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 3 {
		t.Errorf("retrieved %d tuples", r.Cardinality())
	}
	// The paper defines Retrieve as a Restrict without condition: full scan.
	if r.Schema.Len() != 3 {
		t.Errorf("degree = %d", r.Schema.Len())
	}
}

func TestLocalSelect(t *testing.T) {
	l := NewLocal(testDB())
	r, err := drainOpen(l.Open(Select("ALUMNUS", "DEG", rel.ThetaEQ, rel.String("MBA"))))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 2 {
		t.Errorf("selected %d tuples, want 2", r.Cardinality())
	}
}

func TestLocalRestrict(t *testing.T) {
	db := catalog.NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("A", "B"))
	db.Insert("T", rel.Tuple{rel.Int(1), rel.Int(1)}, rel.Tuple{rel.Int(1), rel.Int(2)})
	l := NewLocal(db)
	r, err := drainOpen(l.Open(Restrict("T", "A", rel.ThetaEQ, "B")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 1 {
		t.Errorf("restricted to %d tuples, want 1", r.Cardinality())
	}
}

func TestLocalProject(t *testing.T) {
	l := NewLocal(testDB())
	r, err := drainOpen(l.Open(Project("ALUMNUS", "DEG")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 2 { // MBA, BS
		t.Errorf("projected %d tuples, want 2", r.Cardinality())
	}
}

func TestLocalErrors(t *testing.T) {
	l := NewLocal(testDB())
	if _, err := drainOpen(l.Open(Retrieve("MISSING"))); err == nil {
		t.Error("retrieving missing relation should fail")
	} else if !strings.Contains(err.Error(), "AD") {
		t.Errorf("error should name the LQP: %v", err)
	}
	if _, err := drainOpen(l.Open(Select("ALUMNUS", "NOPE", rel.ThetaEQ, rel.String("x")))); err == nil {
		t.Error("selecting on missing attribute should fail")
	}
	if _, err := drainOpen(l.Open(Op{Kind: OpKind(99), Relation: "ALUMNUS"})); err == nil {
		t.Error("unknown op kind should fail")
	}
}

// TestLocalSnapshotSemantics: a cursor streams the relation as of Open;
// rows inserted while it is open belong to later opens only.
func TestLocalSnapshotSemantics(t *testing.T) {
	db := testDB()
	l := NewLocal(db)
	cur, err := l.Open(Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Insert("ALUMNUS", []rel.Tuple{{rel.String("999"), rel.String("Ann Lee"), rel.String("MS")}}); err != nil {
		t.Fatal(err)
	}
	r, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 3 {
		t.Errorf("open cursor saw %d tuples, want the 3 present at Open", r.Cardinality())
	}
	if r2, _ := drainOpen(l.Open(Retrieve("ALUMNUS"))); r2.Cardinality() != 4 {
		t.Errorf("later open saw %d tuples, want 4", r2.Cardinality())
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Retrieve("CAREER"), "CAREER"},
		{Select("ALUMNUS", "DEG", rel.ThetaEQ, rel.String("MBA")), `ALUMNUS[DEG = "MBA"]`},
		{Restrict("T", "A", rel.ThetaLT, "B"), "T[A < B]"},
		{Project("T", "A", "B"), "T[A B]"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if OpRetrieve.String() != "Retrieve" || OpSelect.String() != "Select" ||
		OpRestrict.String() != "Restrict" || OpProject.String() != "Project" {
		t.Error("OpKind.String wrong")
	}
}
