package catalog

import (
	"strings"
	"testing"

	"repro/internal/rel"
)

func TestCreateAndRelation(t *testing.T) {
	db := NewDatabase("AD")
	if db.Name() != "AD" {
		t.Errorf("Name = %q", db.Name())
	}
	if err := db.Create("T", rel.SchemaOf("A", "B"), "A"); err != nil {
		t.Fatal(err)
	}
	schema, tuples, err := db.View("T")
	if err != nil || schema.Len() != 2 || len(tuples) != 0 {
		t.Errorf("View = %v, %d tuples, %v", schema, len(tuples), err)
	}
	snap, err := db.Snapshot("T")
	if err != nil || snap.Name != "T" {
		t.Errorf("Snapshot = %v, %v", snap, err)
	}
	if _, _, err := db.View("Z"); err == nil {
		t.Error("missing relation lookup should fail")
	}
}

func TestCreateErrors(t *testing.T) {
	db := NewDatabase("X")
	if err := db.Create("T", rel.SchemaOf("A"), "NOPE"); err == nil {
		t.Error("unknown key attribute accepted")
	}
	if err := db.Create("T", rel.SchemaOf("A")); err != nil {
		t.Fatal(err)
	}
	if err := db.Create("T", rel.SchemaOf("B")); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestMustCreatePanics(t *testing.T) {
	db := NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("A"))
	defer func() {
		if recover() == nil {
			t.Error("MustCreate duplicate did not panic")
		}
	}()
	db.MustCreate("T", rel.SchemaOf("A"))
}

func TestKey(t *testing.T) {
	db := NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("A", "B"), "A", "B")
	key, err := db.Key("T")
	if err != nil || len(key) != 2 || key[0] != "A" {
		t.Errorf("Key = %v, %v", key, err)
	}
	if _, err := db.Key("Z"); err == nil {
		t.Error("Key of missing relation should fail")
	}
}

func TestRelationsSorted(t *testing.T) {
	db := NewDatabase("X")
	db.MustCreate("B", rel.SchemaOf("A"))
	db.MustCreate("A", rel.SchemaOf("A"))
	db.MustCreate("C", rel.SchemaOf("A"))
	got := db.Relations()
	if len(got) != 3 || got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Errorf("Relations = %v", got)
	}
}

func TestInsertDegreeAndKeyEnforcement(t *testing.T) {
	db := NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("K", "V"), "K")
	if err := db.Insert("T", rel.Tuple{rel.Int(1), rel.String("a")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("T", rel.Tuple{rel.Int(1)}); err == nil {
		t.Error("degree mismatch accepted")
	}
	if err := db.Insert("T", rel.Tuple{rel.Int(1), rel.String("b")}); err == nil {
		t.Error("duplicate key accepted")
	}
	// Duplicate key within one batch.
	if err := db.Insert("T",
		rel.Tuple{rel.Int(2), rel.String("a")},
		rel.Tuple{rel.Int(2), rel.String("b")},
	); err == nil {
		t.Error("duplicate key within batch accepted")
	}
	// A failed batch must be atomic: nothing inserted.
	if _, tuples, _ := db.View("T"); len(tuples) != 1 {
		t.Errorf("failed batch partially applied: %d tuples", len(tuples))
	}
	if err := db.Insert("Z"); err == nil {
		t.Error("insert into missing relation should fail")
	}
}

func TestInsertCompositeKey(t *testing.T) {
	db := NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("A", "B"), "A", "B")
	ok := [][2]int64{{1, 1}, {1, 2}, {2, 1}}
	for _, p := range ok {
		if err := db.Insert("T", rel.Tuple{rel.Int(p[0]), rel.Int(p[1])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("T", rel.Tuple{rel.Int(1), rel.Int(2)}); err == nil {
		t.Error("duplicate composite key accepted")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("A"))
	db.Insert("T", rel.Tuple{rel.Int(1)})
	snap, err := db.Snapshot("T")
	if err != nil {
		t.Fatal(err)
	}
	db.Insert("T", rel.Tuple{rel.Int(2)})
	if snap.Cardinality() != 1 {
		t.Error("snapshot saw later insert")
	}
	snap.Tuples[0][0] = rel.Int(99)
	if _, live, _ := db.View("T"); live[0][0].IntVal() == 99 {
		t.Error("snapshot aliases live storage")
	}
	if _, err := db.Snapshot("Z"); err == nil {
		t.Error("snapshot of missing relation should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := NewDatabase("X")
	csv := "NAME,AGE,CITY\nann,30,\"NY, NY\"\nbob,25,Boston\n"
	if err := db.LoadCSV("P", strings.NewReader(csv), "NAME"); err != nil {
		t.Fatal(err)
	}
	r, _ := db.Snapshot("P")
	if r.Cardinality() != 2 {
		t.Fatalf("loaded %d tuples", r.Cardinality())
	}
	if r.Tuples[0][1].Kind() != rel.KindInt {
		t.Error("AGE should parse as int")
	}
	if r.Tuples[0][2].Str() != "NY, NY" {
		t.Errorf("quoted field = %q", r.Tuples[0][2].Str())
	}
	var out strings.Builder
	if err := db.WriteCSV("P", &out); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase("Y")
	if err := db2.LoadCSV("P", strings.NewReader(out.String()), "NAME"); err != nil {
		t.Fatal(err)
	}
	r2, _ := db2.Snapshot("P")
	if r2.Cardinality() != 2 || !r2.Tuples[0].Equal(r.Tuples[0]) {
		t.Error("round trip changed data")
	}
}

func TestCSVErrors(t *testing.T) {
	db := NewDatabase("X")
	if err := db.LoadCSV("E", strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail (no header)")
	}
	if err := db.LoadCSV("R", strings.NewReader("A,B,A\n1,2,3\n")); err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Errorf("a header repeating a column: %v, want an error naming it", err)
	}
	if err := db.LoadCSV("K", strings.NewReader("A,B\n1,2\n3,4\n1,3\n"), "A"); err == nil {
		t.Error("duplicate keys in CSV should fail")
	}
	// The load is one batch: the rows before the duplicate are not kept.
	if _, tuples, err := db.View("K"); err != nil || len(tuples) != 0 {
		t.Errorf("failed CSV load left %d tuples (%v)", len(tuples), err)
	}
	if err := db.WriteCSV("MISSING", &strings.Builder{}); err == nil {
		t.Error("writing missing relation should fail")
	}
}
