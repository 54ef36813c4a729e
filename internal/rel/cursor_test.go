package rel

import (
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

func cursorTestRelation(n int) *Relation {
	r := NewRelation("T", SchemaOf("A", "B"))
	for i := 0; i < n; i++ {
		r.MustAppend(Int(int64(i)), String("x"))
	}
	return r
}

func TestSliceCursorBatches(t *testing.T) {
	r := cursorTestRelation(10)
	c := NewSliceCursor(r.Schema, r.Tuples, 3)
	var sizes []int
	total := 0
	for {
		b, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(b))
		for _, tup := range b {
			if tup[0].IntVal() != int64(total) {
				t.Fatalf("tuple %d out of order: %v", total, tup)
			}
			total++
		}
	}
	if total != 10 {
		t.Fatalf("saw %d tuples, want 10", total)
	}
	want := []int{3, 3, 3, 1}
	for i, s := range sizes {
		if s != want[i] {
			t.Fatalf("batch sizes = %v, want %v", sizes, want)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next after exhaustion = %v, want io.EOF", err)
	}
}

func TestDrainRoundTrips(t *testing.T) {
	r := cursorTestRelation(700) // > 2 default batches
	got, err := Drain(CursorOf(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 700 {
		t.Fatalf("drained %d tuples, want 700", got.Cardinality())
	}
	for i, tup := range got.Tuples {
		if !tup.Equal(r.Tuples[i]) {
			t.Fatalf("tuple %d diverged", i)
		}
	}
}

func TestFilterCursor(t *testing.T) {
	r := cursorTestRelation(100)
	c := FilterCursor(NewSliceCursor(r.Schema, r.Tuples, 7), func(t Tuple) bool {
		return t[0].IntVal()%10 == 0
	})
	got, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 10 {
		t.Fatalf("filtered %d tuples, want 10", got.Cardinality())
	}
	for i, tup := range got.Tuples {
		if tup[0].IntVal() != int64(i*10) {
			t.Fatalf("tuple %d = %v, want %d", i, tup, i*10)
		}
	}
}

// TestProjectCursor: a projection reorders columns and drops repeated
// rows in first-occurrence order; without dedup it keeps them; a missing
// or repeated attribute is an error that closes the input; DedupCursor
// drops repeated whole rows.
func TestProjectCursor(t *testing.T) {
	r := NewRelation("T", SchemaOf("A", "B", "C"))
	for i := 0; i < 20; i++ {
		r.MustAppend(Int(int64(i)), Int(int64(i%3)), String("c"))
	}
	for _, dedup := range []bool{true, false} {
		c, err := ProjectCursor(NewSliceCursor(r.Schema, r.Tuples, 4), []string{"C", "B"}, dedup, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(c)
		if err != nil {
			t.Fatal(err)
		}
		want := 20
		if dedup {
			want = 3
		}
		if got.Schema.String() != "(C, B)" || got.Cardinality() != want {
			t.Fatalf("dedup %v: %s with %d rows, want (C, B) with %d", dedup, got.Schema, got.Cardinality(), want)
		}
		for i, tup := range got.Tuples {
			if !tup.Identical(Tuple{String("c"), Int(int64(i % 3))}) {
				t.Fatalf("dedup %v: row %d is %v", dedup, i, tup)
			}
		}
	}
	for _, attrs := range [][]string{{"A", "NOPE"}, {"B", "A", "B"}} {
		in := &closeCounter{Cursor: NewSliceCursor(r.Schema, r.Tuples, 4)}
		if _, err := ProjectCursor(in, attrs, true, 0); err == nil || in.closes.Load() != 1 {
			t.Errorf("%v: err %v, input closed %d times", attrs, err, in.closes.Load())
		}
	}
	twice := append(append([]Tuple(nil), r.Tuples...), r.Tuples...)
	got, err := Drain(DedupCursor(NewSliceCursor(r.Schema, twice, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 20 || !got.Tuples[19].Identical(r.Tuples[19]) {
		t.Fatalf("dedup of a doubled relation kept %d rows", got.Cardinality())
	}
}

func TestPrefetchPreservesOrderAndEOF(t *testing.T) {
	r := cursorTestRelation(1000)
	c := Prefetch(NewSliceCursor(r.Schema, r.Tuples, 9), 4)
	got, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 1000 {
		t.Fatalf("drained %d tuples, want 1000", got.Cardinality())
	}
	for i, tup := range got.Tuples {
		if tup[0].IntVal() != int64(i) {
			t.Fatalf("tuple %d out of order", i)
		}
	}
}

// closeCounter records Close calls on a wrapped cursor. The count is
// atomic: an abandoning Prefetch.Close may hand the inner close to the
// producer goroutine.
type closeCounter struct {
	Cursor
	closes atomic.Int32
}

func (c *closeCounter) Close() error {
	c.closes.Add(1)
	return c.Cursor.Close()
}

func TestPrefetchCloseBeforeDrain(t *testing.T) {
	r := cursorTestRelation(100000)
	inner := &closeCounter{Cursor: NewSliceCursor(r.Schema, r.Tuples, 8)}
	c := Prefetch(inner, 2)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	// Abandon mid-stream: Close must not block on the producer, the
	// producer must stop, and the inner cursor must close exactly once.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	deadline := time.Now().Add(5 * time.Second)
	for inner.closes.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := inner.closes.Load(); n != 1 {
		t.Fatalf("inner cursor closed %d times, want 1", n)
	}
}

// blockingCursor parks in Next until released, modeling a stalled remote
// producer; Close releases it (as closing a network stream would).
type blockingCursor struct {
	schema   *Schema
	release  chan struct{}
	closes   atomic.Int32
	nexts    atomic.Int32
	released atomic.Bool
}

func newBlockingCursor() *blockingCursor {
	return &blockingCursor{schema: SchemaOf("A"), release: make(chan struct{})}
}

func (c *blockingCursor) Schema() *Schema { return c.schema }
func (c *blockingCursor) Next() ([]Tuple, error) {
	c.nexts.Add(1)
	<-c.release
	return nil, io.EOF
}
func (c *blockingCursor) Close() error {
	c.closes.Add(1)
	if c.released.CompareAndSwap(false, true) {
		close(c.release)
	}
	return nil
}

// TestPrefetchCloseBeforeFirstNext: closing a prefetch cursor before any
// Next — even while the producer is parked inside the inner cursor's Next —
// must return immediately; once the inner cursor unblocks, the read-ahead
// goroutine must exit and the deferred close must fire. Run under -race,
// this is the regression test for the producer lifecycle: no goroutine
// leak, no deadlock.
func TestPrefetchCloseBeforeFirstNext(t *testing.T) {
	inner := newBlockingCursor()
	c := Prefetch(inner, 1)
	// Let the producer reach the inner Next so Close races a parked read.
	deadline := time.Now().Add(5 * time.Second)
	for inner.nexts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a parked producer")
	}
	// Unblock the parked Next (as a closing network stream would). The
	// producer must now exit and Prefetch's deferred close must close the
	// inner cursor — a second Close call on top of ours here.
	inner.Close()
	deadline = time.Now().Add(5 * time.Second)
	for inner.closes.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := inner.closes.Load(); n < 2 {
		t.Fatalf("producer never exited or never ran the deferred inner close (%d closes)", n)
	}
}

// countingCursor yields unlimited batches instantly, counting Next calls.
type countingCursor struct {
	schema *Schema
	nexts  atomic.Int32
	closed atomic.Bool
}

func (c *countingCursor) Schema() *Schema { return c.schema }
func (c *countingCursor) Next() ([]Tuple, error) {
	c.nexts.Add(1)
	return []Tuple{{Int(1)}}, nil
}
func (c *countingCursor) Close() error { c.closed.Store(true); return nil }

// TestPrefetchCloseOnFullChannel: with the read-ahead buffer full and the
// producer parked on the hand-off, Close must not deadlock, must stop the
// producer promptly (no racing ahead to refill the buffer), and must close
// the inner cursor.
func TestPrefetchCloseOnFullChannel(t *testing.T) {
	inner := &countingCursor{schema: SchemaOf("A")}
	const depth = 2
	c := Prefetch(inner, depth)
	// Wait for the buffer to fill: depth batches buffered plus one in the
	// producer's hand, i.e. depth+1 Next calls.
	deadline := time.Now().Add(5 * time.Second)
	for inner.nexts.Load() < depth+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	produced := inner.nexts.Load()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for !inner.closed.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !inner.closed.Load() {
		t.Fatal("inner cursor never closed")
	}
	// The producer was parked on a full channel at Close; stopping it must
	// not consume more than the one in-flight batch it already held.
	if after := inner.nexts.Load(); after > produced+1 {
		t.Fatalf("producer kept reading after Close: %d Next calls grew to %d", produced, after)
	}
}

// errCursor fails after yielding one batch.
type errCursor struct {
	schema *Schema
	sent   bool
}

var errBroken = errors.New("broken producer")

func (c *errCursor) Schema() *Schema { return c.schema }
func (c *errCursor) Next() ([]Tuple, error) {
	if c.sent {
		return nil, errBroken
	}
	c.sent = true
	return []Tuple{{Int(1)}}, nil
}
func (c *errCursor) Close() error { return nil }

func TestPrefetchPropagatesErrors(t *testing.T) {
	c := Prefetch(&errCursor{schema: SchemaOf("A")}, 4)
	defer c.Close()
	if _, err := c.Next(); err != nil {
		t.Fatalf("first batch failed: %v", err)
	}
	if _, err := c.Next(); !errors.Is(err, errBroken) {
		t.Fatalf("error = %v, want errBroken", err)
	}
	// Errors are sticky.
	if _, err := c.Next(); !errors.Is(err, errBroken) {
		t.Fatalf("second error = %v, want errBroken", err)
	}
}

func TestDrainPropagatesErrors(t *testing.T) {
	if _, err := Drain(&errCursor{schema: SchemaOf("A")}); !errors.Is(err, errBroken) {
		t.Fatalf("Drain error = %v, want errBroken", err)
	}
}
