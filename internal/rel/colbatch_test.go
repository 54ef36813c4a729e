package rel

import (
	"io"
	"math"
	"testing"
)

// These tests pin the batch-boundary behaviour of the plain columnar
// cursors — the rel-side mirror of core's TestColCursorBatchEdges — plus the
// Column vector's lazy materialization and special-value fidelity.

func colTestTuples(n int) []Tuple {
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i)), String("v")}
	}
	return tuples
}

func drainCol(t *testing.T, c ColCursor) (rows int, batches []int) {
	t.Helper()
	for {
		b, err := c.NextCol()
		if err == io.EOF {
			return rows, batches
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatal("cursor yielded an empty batch")
		}
		rows += b.Len()
		batches = append(batches, b.Len())
	}
}

func TestColCursorBatchEdges(t *testing.T) {
	schema := SchemaOf("K", "V")

	t.Run("batch size one", func(t *testing.T) {
		c := NewSliceCursor(schema, colTestTuples(4), 1).(ColCursor)
		rows, batches := drainCol(t, c)
		if rows != 4 || len(batches) != 4 {
			t.Fatalf("got %d rows in %d batches, want 4 in 4", rows, len(batches))
		}
	})

	t.Run("empty input", func(t *testing.T) {
		c := NewSliceCursor(schema, nil, 3).(ColCursor)
		if _, err := c.NextCol(); err != io.EOF {
			t.Fatalf("NextCol on empty input: %v, want EOF", err)
		}
		if _, err := c.Next(); err != io.EOF {
			t.Fatalf("Next after EOF: %v, want EOF", err)
		}
	})

	t.Run("final short batch", func(t *testing.T) {
		c := NewSliceCursor(schema, colTestTuples(7), 3).(ColCursor)
		rows, batches := drainCol(t, c)
		if rows != 7 {
			t.Fatalf("got %d rows, want 7", rows)
		}
		want := []int{3, 3, 1}
		if len(batches) != len(want) {
			t.Fatalf("got batch sizes %v, want %v", batches, want)
		}
		for i := range want {
			if batches[i] != want[i] {
				t.Fatalf("got batch sizes %v, want %v", batches, want)
			}
		}
	})

	t.Run("close mid-stream", func(t *testing.T) {
		c := NewSliceCursor(schema, colTestTuples(9), 3).(ColCursor)
		if _, err := c.NextCol(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.NextCol(); err != io.EOF {
			t.Fatalf("NextCol after Close: %v, want EOF", err)
		}
	})

	t.Run("interleave Next and NextCol", func(t *testing.T) {
		c := NewSliceCursor(schema, colTestTuples(7), 3).(ColCursor)
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
		// Both forms advance the same stream: 3 + 3 + 1 rows.
		if b1.Len() != 3 || len(r2) != 3 || b3.Len() != 1 {
			t.Fatalf("interleaved sizes %d/%d/%d, want 3/3/1", b1.Len(), len(r2), b3.Len())
		}
		if got := b3.Value(0, 0).IntVal(); got != 6 {
			t.Fatalf("final batch starts at key %d, want 6", got)
		}
		if _, err := c.Next(); err != io.EOF {
			t.Fatalf("after exhaustion: %v, want EOF", err)
		}
	})
}

// TestPrefetchColumnarHandOff: a columnar inner cursor stays columnar
// through Prefetch — NextCol yields the producer's batches, and Next serves
// their row views.
func TestPrefetchColumnarHandOff(t *testing.T) {
	schema := SchemaOf("K", "V")
	p := Prefetch(NewSliceCursor(schema, colTestTuples(10), 4), 2)
	pc, ok := p.(ColCursor)
	if !ok {
		t.Fatal("Prefetch over a ColCursor lost the columnar capability")
	}
	rows, batches := drainCol(t, pc)
	if rows != 10 {
		t.Fatalf("got %d rows, want 10", rows)
	}
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(batches))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Row-only inner: Prefetch columnarizes on demand.
	p2 := Prefetch(FilterCursor(NewSliceCursor(schema, colTestTuples(6), 4), func(Tuple) bool { return true }), 2)
	pc2 := p2.(ColCursor)
	rows2, _ := drainCol(t, pc2)
	if rows2 != 6 {
		t.Fatalf("row-only inner: got %d rows, want 6", rows2)
	}
	p2.Close()
}

// TestColumnSpecialValues: the lazy Nums/Strs vectors hold -0 bit-exactly,
// NaN, empty strings and nulls, and report them back identically.
func TestColumnSpecialValues(t *testing.T) {
	var c Column
	vals := []Value{
		Null(),
		String(""),
		Int(0),
		Float(math.Copysign(0, -1)),
		Float(math.NaN()),
		Bool(false),
		String("x"),
		Int(math.MinInt64),
	}
	for _, v := range vals {
		c.Append(v)
	}
	if err := c.Validate(len(vals)); err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got := c.Value(i)
		if got.Kind() != want.Kind() || !want.Identical(got) {
			t.Fatalf("row %d: got %v (kind %d), want %v (kind %d)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if bits := math.Float64bits(c.Value(3).FloatVal()); bits != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0 lost its sign bit: %#x", bits)
	}
	if f := c.Value(4).FloatVal(); !math.IsNaN(f) {
		t.Fatalf("NaN came back as %v", f)
	}
}

// TestColumnLazyVectors: columns of all-zero numeric payloads and no strings
// never materialize their payload vectors.
func TestColumnLazyVectors(t *testing.T) {
	var c Column
	for i := 0; i < 5; i++ {
		c.Append(Null())
	}
	if c.Nums != nil || c.Strs != nil {
		t.Fatal("null-only column materialized payload vectors")
	}
	c.Append(Int(7))
	if c.Nums == nil {
		t.Fatal("nonzero int did not materialize Nums")
	}
	if c.Strs != nil {
		t.Fatal("numeric column materialized Strs")
	}
	if got := c.Value(5).IntVal(); got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	// Earlier rows backfill as zero payloads.
	if got := c.Value(0); got.Kind() != KindNull {
		t.Fatalf("row 0 changed kind: %v", got)
	}
}
