package lqp

import (
	"strings"
	"testing"

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
