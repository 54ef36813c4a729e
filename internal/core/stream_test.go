package core

import (
	"io"
	"testing"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// trackedCursor wraps a cursor and records whether it was closed.
type trackedCursor struct {
	Cursor
	closed int
}

func (c *trackedCursor) Close() error {
	c.closed++
	return c.Cursor.Close()
}

func streamEnv() (*testEnv, *Algebra) {
	return newEnv(), NewAlgebra(nil)
}

// TestStreamCloseWithoutDrainClosesInputs: abandoning a composed stream
// closes every input cursor exactly once — no leaked producers.
func TestStreamCloseWithoutDrainClosesInputs(t *testing.T) {
	e, alg := streamEnv()
	p1 := e.prel("P1", sourceset.Of(e.ad), attrs("A", "B"), []any{"x", 1}, []any{"y", 2})
	p2 := e.prel("P2", sourceset.Of(e.pd), attrs("A", "B"), []any{"x", 3})

	mk := func() (*trackedCursor, *trackedCursor) {
		return &trackedCursor{Cursor: CursorOf(p1)}, &trackedCursor{Cursor: CursorOf(p2)}
	}

	for _, tc := range []struct {
		name  string
		build func(l, r Cursor) (Cursor, error)
	}{
		{"union", alg.StreamUnion},
		{"difference", alg.StreamDifference},
		{"intersect", alg.StreamIntersect},
		{"product", alg.StreamProduct},
		{"join", func(l, r Cursor) (Cursor, error) { return alg.StreamJoin(l, "A", rel.ThetaEQ, r, "A") }},
	} {
		l, r := mk()
		c, err := tc.build(l, r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.name, err)
		}
		if l.closed != 1 || r.closed != 1 {
			t.Errorf("%s: inputs closed (%d, %d) times, want (1, 1)", tc.name, l.closed, r.closed)
		}
	}
}

// TestStreamConstructionErrorClosesInputs: a bad attribute reference at
// construction time must not leak the input cursors.
func TestStreamConstructionErrorClosesInputs(t *testing.T) {
	e, alg := streamEnv()
	p := e.prel("P", sourceset.Of(e.ad), attrs("A"), []any{"x"})
	in := &trackedCursor{Cursor: CursorOf(p)}
	if _, err := alg.StreamSelect(in, "NOPE", rel.ThetaEQ, rel.String("x")); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if in.closed != 1 {
		t.Errorf("input closed %d times, want 1", in.closed)
	}
	l := &trackedCursor{Cursor: CursorOf(p)}
	r := &trackedCursor{Cursor: CursorOf(p)}
	if _, err := alg.StreamJoin(l, "NOPE", rel.ThetaEQ, r, "A"); err == nil {
		t.Fatal("bad join attribute accepted")
	}
	if l.closed != 1 || r.closed != 1 {
		t.Errorf("join inputs closed (%d, %d) times, want (1, 1)", l.closed, r.closed)
	}
}

// TestStreamDegreeMismatch: the set operators reject incompatible inputs at
// construction and close them.
func TestStreamDegreeMismatch(t *testing.T) {
	e, alg := streamEnv()
	p1 := e.prel("P1", sourceset.Of(e.ad), attrs("A", "B"), []any{"x", 1})
	p2 := e.prel("P2", sourceset.Of(e.pd), attrs("A"), []any{"x"})
	for _, tc := range []struct {
		name  string
		build func(l, r Cursor) (Cursor, error)
	}{
		{"union", alg.StreamUnion},
		{"difference", alg.StreamDifference},
		{"intersect", alg.StreamIntersect},
	} {
		l := &trackedCursor{Cursor: CursorOf(p1)}
		r := &trackedCursor{Cursor: CursorOf(p2)}
		if _, err := tc.build(l, r); err == nil {
			t.Fatalf("%s: degree mismatch accepted", tc.name)
		}
		if l.closed != 1 || r.closed != 1 {
			t.Errorf("%s: inputs closed (%d, %d) times, want (1, 1)", tc.name, l.closed, r.closed)
		}
	}
}

// TestStreamProductPaginates: a product larger than one batch is emitted in
// bounded batches, in the nested-loop order of the materialized product.
func TestStreamProductPaginates(t *testing.T) {
	e, alg := streamEnv()
	left := NewRelation("L", e.reg, attrs("A")...)
	for i := 0; i < 40; i++ {
		left.Tuples = append(left.Tuples, Tuple{Cell{D: rel.Int(int64(i)), O: sourceset.Of(e.ad)}})
	}
	right := NewRelation("R", e.reg, attrs("B")...)
	for i := 0; i < 30; i++ {
		right.Tuples = append(right.Tuples, Tuple{Cell{D: rel.Int(int64(i)), O: sourceset.Of(e.pd)}})
	}
	c, err := alg.StreamProduct(NewRelationCursor(left, 7), NewRelationCursor(right, 11))
	if err != nil {
		t.Fatal(err)
	}
	var got []Tuple
	for {
		batch, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > rel.DefaultBatchSize {
			t.Fatalf("batch of %d rows exceeds bound %d", len(batch), rel.DefaultBatchSize)
		}
		got = append(got, batch...)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mat := refProduct(left, right)
	if len(got) != len(mat.Tuples) {
		t.Fatalf("product emitted %d rows, want %d", len(got), len(mat.Tuples))
	}
	for i := range got {
		if !got[i].Equal(mat.Tuples[i]) {
			t.Fatalf("row %d diverged from reference order", i)
		}
	}
}

// TestStreamJoinPaginatesSkewedFanOut: a many-to-many join on one shared
// key must emit bounded batches, not the whole |l|×|r| fan-out in one
// Next, and still produce the reference join's rows in order.
func TestStreamJoinPaginatesSkewedFanOut(t *testing.T) {
	e, alg := streamEnv()
	mk := func(name string, n int, src sourceset.ID) *Relation {
		p := NewRelation(name, e.reg, attrs("K/PK", name+"V")...)
		for i := 0; i < n; i++ {
			p.Tuples = append(p.Tuples, Tuple{
				{D: rel.String("k"), O: sourceset.Of(src)},
				{D: rel.Int(int64(i)), O: sourceset.Of(src)},
			})
		}
		return p
	}
	left, right := mk("L", 300, e.ad), mk("R", 300, e.pd)
	c, err := alg.StreamJoin(CursorOf(left), "K", rel.ThetaEQ, CursorOf(right), "K")
	if err != nil {
		t.Fatal(err)
	}
	var got []Tuple
	for {
		batch, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > rel.DefaultBatchSize {
			t.Fatalf("join batch of %d rows exceeds bound %d", len(batch), rel.DefaultBatchSize)
		}
		got = append(got, batch...)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mat, err := alg.RefJoin(left, "K", rel.ThetaEQ, right, "K")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(mat.Tuples) {
		t.Fatalf("join emitted %d rows, want %d", len(got), len(mat.Tuples))
	}
	for i := range got {
		if !got[i].Equal(mat.Tuples[i]) {
			t.Fatalf("row %d diverged from reference order", i)
		}
	}
}

// TestStreamDifferenceEmitsProbeSideEarly: the probe side streams — output
// appears after only part of the left input has been pulled.
func TestStreamDifferenceEmitsProbeSideEarly(t *testing.T) {
	e, alg := streamEnv()
	left := NewRelation("L", e.reg, attrs("A")...)
	for i := 0; i < 1000; i++ {
		left.Tuples = append(left.Tuples, Tuple{Cell{D: rel.Int(int64(i)), O: sourceset.Of(e.ad)}})
	}
	right := NewRelation("R", e.reg, attrs("A")...)
	right.Tuples = append(right.Tuples, Tuple{Cell{D: rel.Int(-1), O: sourceset.Of(e.pd)}})

	lc := &countingNext{Cursor: NewRelationCursor(left, 10)}
	c, err := alg.StreamDifference(lc, CursorOf(right))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	if lc.nexts > 2 {
		t.Errorf("first output batch needed %d probe-side pulls; difference is not streaming its probe side", lc.nexts)
	}
}

// countingNext counts Next calls on a wrapped cursor.
type countingNext struct {
	Cursor
	nexts int
}

func (c *countingNext) Next() ([]Tuple, error) {
	c.nexts++
	return c.Cursor.Next()
}
