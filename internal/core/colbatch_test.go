package core

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// ColBatch is the tagged frame format of the mediator's answers: a relation
// must survive the trip through it tag for tag, and the columnar cursor
// capability must cut batches correctly.

// cellsSame compares rows datum-identically (all NaNs are one datum — the
// engine's identity notion; Value.Equal would make NaN rows incomparable)
// plus tag-set equality.
func cellsSame(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].D.Kind() != b[i].D.Kind() || !a[i].D.Identical(b[i].D) ||
			!a[i].O.Equal(b[i].O) || !a[i].I.Equal(b[i].I) {
			return false
		}
	}
	return true
}

// TestColBatchRoundTrip: relation -> ColBatch -> Rows is the identity, tags
// included.
func TestColBatchRoundTrip(t *testing.T) {
	g, reg := newWideGen(91)
	for i := 0; i < 200; i++ {
		p := g.wideRelation(reg, "A", "B", "C")
		b := FromRelation(p)
		if b.Len() != len(p.Tuples) {
			t.Fatalf("iteration %d: batch length %d for %d tuples", i, b.Len(), len(p.Tuples))
		}
		rows := b.Rows()
		for ri, want := range p.Tuples {
			if !cellsSame(rows[ri], want) {
				t.Fatalf("iteration %d: row %d diverged:\ncol: %v\nrow: %v", i, ri, rows[ri], want)
			}
		}
	}
}

// TestColBatchSpecialValues: NaN unification, -0 round-trip, empty strings
// and >64-source overflow sets survive the columnar representation.
func TestColBatchSpecialValues(t *testing.T) {
	reg := sourceset.NewRegistry()
	big := sourceset.Empty()
	for i := 0; i < 70; i++ {
		big = big.With(reg.Intern(fmt.Sprintf("src%02d", i)))
	}
	p := NewRelation("S", reg, Attr{Name: "A"}, Attr{Name: "B"})
	nan := math.NaN()
	negz := math.Copysign(0, -1)
	rows := []Tuple{
		{Cell{D: rel.Float(nan), O: big}, Cell{D: rel.String("")}},
		{Cell{D: rel.Float(negz), I: big}, Cell{D: rel.Null()}},
		{Cell{D: rel.Bool(false), O: big, I: big}, Cell{D: rel.Int(0)}},
	}
	p.Tuples = rows
	b := FromRelation(p)
	got := b.Rows()
	for i := range rows {
		for ci := range rows[i] {
			w, g := rows[i][ci], got[i][ci]
			if w.D.Kind() != g.D.Kind() || !w.D.Identical(g.D) || !w.O.Equal(g.O) || !w.I.Equal(g.I) {
				t.Fatalf("row %d col %d: %v, %v, %v != %v, %v, %v", i, ci, g.D, g.O, g.I, w.D, w.O, w.I)
			}
		}
	}
	// -0 round-trips bit-exactly through the packed column.
	if math.Copysign(1, got[1][0].D.FloatVal()) != -1 {
		t.Fatal("-0 lost its sign through the columnar round trip")
	}
}

// TestColCursorBatchEdges: the relation cursor's columnar capability across
// batch size 1, empty input, a final short batch, interleaved Next/NextCol,
// and mid-batch Close.
func TestColCursorBatchEdges(t *testing.T) {
	g, reg := newWideGen(92)
	p := g.wideRelation(reg, "A", "B")
	for len(p.Tuples) < 7 {
		p = g.wideRelation(reg, "A", "B")
	}
	p.Tuples = p.Tuples[:7]

	// Batch size 1: seven singleton batches, rows in order.
	c := NewRelationCursor(p, 1).(ColCursor)
	var rows []Tuple
	for {
		b, err := c.NextCol()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != 1 {
			t.Fatalf("batch size 1 yielded %d rows", b.Len())
		}
		rows = append(rows, b.Rows()...)
	}
	if len(rows) != 7 {
		t.Fatalf("batch size 1 yielded %d rows in total", len(rows))
	}
	for i := range rows {
		if !cellsSame(rows[i], p.Tuples[i]) {
			t.Fatalf("row %d diverged through batch-1 cursor", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Empty input: immediate EOF on both row and columnar forms.
	empty := NewRelation("E", reg, Attr{Name: "A"}, Attr{Name: "B"})
	c = NewRelationCursor(empty, 3).(ColCursor)
	if _, err := c.NextCol(); err != io.EOF {
		t.Fatalf("empty columnar cursor: err %v, want EOF", err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("empty columnar cursor Next: err %v, want EOF", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Final short batch: 7 rows at batch 3 is 3+3+1.
	c = NewRelationCursor(p, 3).(ColCursor)
	var sizes []int
	for {
		b, err := c.NextCol()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, b.Len())
	}
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Fatalf("batch sizes %v, want [3 3 1]", sizes)
	}
	c.Close()

	// Mid-batch Close: Close after the first batch ends the stream.
	c = NewRelationCursor(p, 3).(ColCursor)
	if _, err := c.NextCol(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NextCol(); err != io.EOF {
		t.Fatalf("NextCol after Close: err %v, want EOF", err)
	}

	// Interleaving: Next and NextCol advance the same stream, 3 + 3 + 1.
	c = NewRelationCursor(p, 3).(ColCursor)
	b1, err := c.NextCol()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	b3, err := c.NextCol()
	if err != nil {
		t.Fatal(err)
	}
	if b1.Len() != 3 || len(r2) != 3 || b3.Len() != 1 {
		t.Fatalf("interleaved sizes %d/%d/%d, want 3/3/1", b1.Len(), len(r2), b3.Len())
	}
	if !cellsSame(b3.Rows()[0], p.Tuples[6]) {
		t.Fatal("final interleaved batch does not start at row 6")
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("after exhaustion: err %v, want EOF", err)
	}
	c.Close()
}
