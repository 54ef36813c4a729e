package lqp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
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

// projectDomain is the small cell domain of the streamed-Project property
// test: values that collide under a naive equality and must not collide
// under identity (NaN beside NaN, −0 beside +0, Int(5) beside Float(5),
// null).
var projectDomain = []rel.Value{
	rel.Null(), rel.Float(math.NaN()), rel.Float(math.Copysign(0, -1)), rel.Float(0),
	rel.Int(5), rel.Float(5), rel.String("5"), rel.String("a"), rel.Bool(true),
}

// projectRelation builds a random relation T(K, A, B) in db. K is distinct
// (so it may be declared the key); A and B draw from projectDomain, and an
// unkeyed relation repeats whole rows too.
func projectRelation(t *testing.T, r *rand.Rand, name string, keyed bool) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase(name)
	var key []string
	if keyed {
		key = []string{"K"}
	}
	db.MustCreate("T", rel.SchemaOf("K", "A", "B"), key...)
	n := r.Intn(700)
	rows := make([]rel.Tuple, 0, n)
	for i := 0; i < n; i++ {
		if !keyed && i > 0 && r.Intn(5) == 0 {
			rows = append(rows, rows[r.Intn(i)])
			continue
		}
		var k rel.Value
		switch i % 4 {
		case 0:
			k = rel.Int(int64(i))
		case 1:
			k = rel.Float(float64(i))
		case 2:
			k = rel.String(strconv.Itoa(i))
		default:
			k = rel.Float(float64(i) + 0.5)
		}
		rows = append(rows, rel.Tuple{k, projectDomain[r.Intn(len(projectDomain))], projectDomain[r.Intn(len(projectDomain))]})
	}
	if err := db.Insert("T", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

// inputCursor counts the batches its consumer pulled and whether it saw
// the end.
type inputCursor struct {
	rel.Cursor
	batches   int
	exhausted bool
}

func (c *inputCursor) Next() ([]rel.Tuple, error) {
	b, err := c.Cursor.Next()
	if err == io.EOF {
		c.exhausted = true
	} else if err == nil {
		c.batches++
	}
	return b, err
}

// TestStreamedProjectProperty: over random relations with and without a
// declared key, every projection streams exactly the naive oracle's rows in
// first-occurrence order — through Local.OpenPlan, and through the Project
// cursor at batch sizes from 1 up — a projection keeping the key emits no
// duplicate, and the first batch leaves after one input batch.
func TestStreamedProjectProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cols := []string{"K", "A", "B"}
	for iter := 0; iter < 60; iter++ {
		keyed := iter%2 == 0
		db := projectRelation(t, r, "PR", keyed)
		base, err := db.Snapshot("T")
		if err != nil {
			t.Fatal(err)
		}
		perm := r.Perm(len(cols))[:1+r.Intn(len(cols))]
		attrs := make([]string, len(perm))
		for i, c := range perm {
			attrs[i] = cols[c]
		}
		label := fmt.Sprintf("iteration %d (keyed %v) %v", iter, keyed, attrs)
		want := naiveProject(t, base, attrs)

		got, err := drainOpen(NewLocal(db).OpenPlan(PlanOf(Project("T", attrs...))))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRows(t, label, got, want)
		if keyed && slices.Contains(attrs, "K") {
			seen := make(map[string]bool)
			for _, tu := range got.Tuples {
				if seen[tu.Key()] {
					t.Fatalf("%s: keyed projection emitted %v twice", label, tu)
				}
				seen[tu.Key()] = true
			}
		}

		for i, batch := range []int{1, 2, 3, 7, 64, rel.DefaultBatchSize} {
			rows := 0 // a dedup table that grows, or one sized up front
			if i%2 == 1 {
				rows = len(base.Tuples)
			}
			in := &inputCursor{Cursor: rel.NewSliceCursor(base.Schema, base.Tuples, batch)}
			cur, err := rel.ProjectCursor(in, attrs, !keyed || !slices.Contains(attrs, "K"), rows)
			if err != nil {
				t.Fatal(err)
			}
			first, err := cur.Next()
			if len(base.Tuples) == 0 {
				if err != io.EOF {
					t.Fatalf("%s batch %d: empty input gave %v, %v", label, batch, first, err)
				}
				cur.Close()
				continue
			}
			if err != nil {
				t.Fatalf("%s batch %d: %v", label, batch, err)
			}
			if in.batches != 1 || (len(base.Tuples) > batch && in.exhausted) {
				t.Fatalf("%s batch %d: first batch after %d input batches (exhausted %v)", label, batch, in.batches, in.exhausted)
			}
			rest, err := rel.Drain(cur)
			if err != nil {
				t.Fatal(err)
			}
			rest.Tuples = append(slices.Clone(first), rest.Tuples...)
			sameRows(t, fmt.Sprintf("%s batch %d", label, batch), rest, want)
		}
	}
}
