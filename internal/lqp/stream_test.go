package lqp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/rel"
)

// bigDB builds a database whose relation spans several default batches.
func bigDB(n int) *catalog.Database {
	db := catalog.NewDatabase("BD")
	db.MustCreate("T", rel.SchemaOf("K", "V"))
	for i := 0; i < n; i++ {
		if err := db.Insert("T", rel.Tuple{rel.Int(int64(i)), rel.String(strings.Repeat("v", 1+i%3))}); err != nil {
			panic(err)
		}
	}
	return db
}

// TestLocalOpenMatchesExecute: for every op kind, the streamed result
// equals the operation applied to the in-process relation row for row.
func TestLocalOpenMatchesExecute(t *testing.T) {
	db := bigDB(700)
	l := NewLocal(db)
	ops := []Op{
		Retrieve("T"),
		Select("T", "K", rel.ThetaLT, rel.Int(500)),
		Restrict("T", "K", rel.ThetaNE, "V"),
		Project("T", "V"),
	}
	for _, op := range ops {
		got, err := drainOpen(l.Open(op))
		if err != nil {
			t.Fatalf("%v: open: %v", op, err)
		}
		sameRows(t, op.String(), got, stepwise(t, db, PlanOf(op)))
	}
}

// TestLocalOpenErrors: unknown relations, attributes and op kinds fail at
// Open time, not mid-stream.
func TestLocalOpenErrors(t *testing.T) {
	l := NewLocal(bigDB(10))
	for _, op := range []Op{
		Retrieve("MISSING"),
		Select("T", "NOPE", rel.ThetaEQ, rel.Int(1)),
		Restrict("T", "K", rel.ThetaEQ, "NOPE"),
		Project("T", "NOPE"),
		{Kind: OpKind(99), Relation: "T"},
	} {
		if _, err := l.Open(op); err == nil {
			t.Errorf("%v: error expected", op)
		}
	}
}

// TestCountingLatencyPerBatch: a relation spanning b batches charges one
// Latency per Next — b × Latency in all, paid as the cursor is pulled.
func TestCountingLatencyPerBatch(t *testing.T) {
	const latency = 30 * time.Millisecond
	n := rel.DefaultBatchSize*2 + 10 // 3 batches
	c := NewCounting(NewLocal(bigDB(n)))
	c.Latency = latency

	cur, err := c.Open(Retrieve("T"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	head, err := cur.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := time.Since(start)
	if first < latency {
		t.Errorf("first batch arrived in %v, want >= %v", first, latency)
	}
	// Generous upper bound: one batch latency plus scheduling slack, well
	// under the 3-batch whole-transfer time.
	if first >= 3*latency-latency/2 {
		t.Errorf("first batch took %v; streaming should pay one batch latency, not the whole transfer", first)
	}
	r, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(head) + r.Cardinality(); got != n {
		t.Fatalf("retrieved %d tuples, want %d", got, n)
	}
	if elapsed := time.Since(start); elapsed < 3*latency {
		t.Errorf("streamed retrieve of 3 batches took %v, want >= %v", elapsed, 3*latency)
	}
	if c.Total() != 1 || c.Count(OpRetrieve) != 1 {
		t.Errorf("ops recorded = %d (%d retrieves), want 1", c.Total(), c.Count(OpRetrieve))
	}
}
