package stats

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

func TestCatalogRelationAndLatency(t *testing.T) {
	c := NewCatalog()
	c.SetRelation("AD", lqp.RelationStats{Name: "ALUMNUS", Rows: 8, Columns: []string{"AID#", "ANAME"}, Key: []string{"AID#"}})
	if n, ok := c.Cardinality("AD", "ALUMNUS"); !ok || n != 8 {
		t.Errorf("cardinality = %d, %v", n, ok)
	}
	if cols, ok := c.Columns("AD", "ALUMNUS"); !ok || len(cols) != 2 {
		t.Errorf("columns = %v, %v", cols, ok)
	}
	if _, ok := c.Cardinality("AD", "NOPE"); ok {
		t.Error("unknown relation reported")
	}
	// A cardinality-only entry must not fabricate a column list: an entry
	// without collected columns reads as column-unknown, so recording rows
	// can never disable column-dependent rewrites.
	c.SetRelation("PD", lqp.RelationStats{Name: "STUDENT", Rows: 5})
	if cols, ok := c.Columns("PD", "STUDENT"); ok {
		t.Errorf("cardinality-only entry reported columns %v", cols)
	}

	c.ObserveLatency("AD", 100*time.Millisecond)
	if d, ok := c.Latency("AD"); !ok || d != 100*time.Millisecond {
		t.Errorf("first observation = %v, %v", d, ok)
	}
	c.ObserveLatency("AD", 200*time.Millisecond)
	if d, _ := c.Latency("AD"); d <= 100*time.Millisecond || d >= 200*time.Millisecond {
		t.Errorf("EWMA %v not between the observations", d)
	}
	c.SetLatency("AD", time.Second)
	if d, _ := c.Latency("AD"); d != time.Second {
		t.Errorf("pinned latency = %v", d)
	}
}

func TestTransferCost(t *testing.T) {
	c := NewCatalog()
	if got := c.TransferCost("AD", 1000, 256); got != 0 {
		t.Errorf("unknown link cost = %v, want 0", got)
	}
	c.SetLatency("AD", 2*time.Millisecond)
	if got := c.TransferCost("AD", 1000, 256); got != 8*time.Millisecond {
		t.Errorf("1000 rows / 256 batch = %v, want 8ms (4 batches)", got)
	}
	if got := c.TransferCost("AD", 0, 256); got != 2*time.Millisecond {
		t.Errorf("empty result still costs one batch, got %v", got)
	}
}

func TestCollect(t *testing.T) {
	db := catalog.NewDatabase("XD")
	db.MustCreate("T", rel.SchemaOf("A", "B"), "A")
	if err := db.Insert("T", rel.Tuple{rel.Int(1), rel.Int(2)}); err != nil {
		t.Fatal(err)
	}
	c, err := Collect(map[string]lqp.LQP{"XD": lqp.NewLocal(db)})
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := c.Cardinality("XD", "T"); !ok || n != 1 {
		t.Errorf("collected cardinality = %d, %v", n, ok)
	}
	if _, ok := c.Latency("XD"); !ok {
		t.Error("collection did not seed a latency estimate")
	}
	if c.String() == "" {
		t.Error("empty dump")
	}
}
