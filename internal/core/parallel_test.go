package core

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/identity"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// The partitioned-build property suite: on a parallel-configured algebra,
// StreamJoin and StreamDifference build their hash sides radix-partitioned
// across the worker pool (and the join probes through a ParallelCursor).
// The output must equal the serial stream row for row — row order included
// — at every worker count, deterministically across runs, and the string-
// keyed Ref* operators cell for cell. Worker counts cover 1 (stays
// serial), 2, 7 (non-power-of-two: the radix split must not assume
// power-of-two masks) and 16 (more partitions than tuples).

var parTestWorkers = []int{1, 2, 7, 16}

// parAlgebra returns an algebra whose every build goes partitioned across a
// workers-sized pool.
func parAlgebra(res identity.Resolver, workers int) *Algebra {
	alg := NewAlgebra(res)
	alg.SetParallel(&Parallel{Pool: exec.NewPool(workers), Threshold: 1})
	return alg
}

// wantSameOrdered asserts two relations agree cell for cell in the same
// row order — the partitioned path's order guarantee, stronger than
// wantSameRendered's order-insensitive parity.
func wantSameOrdered(t *testing.T, label string, i int, got, ref *Relation) {
	t.Helper()
	gr, rr := render(got), render(ref)
	if !equalStrings(gr, rr) {
		t.Fatalf("iteration %d: %s: parallel row order or cells diverged from serial:\npar:\n%s\nserial:\n%s",
			i, label, strings.Join(gr, "\n"), strings.Join(rr, "\n"))
	}
}

// TestPropertyParOpsMatchAllEngines: for random wide inputs (mixed kinds,
// NaN/-0, >64-source tag sets) the partitioned StreamDifference must equal
// the serial stream row for row and the reference cell for cell, at every
// worker count.
func TestPropertyParOpsMatchAllEngines(t *testing.T) {
	g, reg := newWideGen(80)
	serial := NewAlgebra(nil)
	algs := make([]*Algebra, len(parTestWorkers))
	for wi, w := range parTestWorkers {
		algs[wi] = parAlgebra(nil, w)
	}
	for i := 0; i < 200; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		ser := mustDrain(serial.StreamDifference(cursorOver(p1), cursorOver(p2)))
		ref, err := serial.RefDifference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		wantSameRendered(t, "difference vs reference", i, ser, ref)
		for _, alg := range algs {
			par := mustDrain(alg.StreamDifference(cursorOver(p1), cursorOver(p2)))
			wantSameOrdered(t, "par difference", i, par, ser)
		}
	}
}

// TestPropertyParJoinMatchesAllEngines runs the join parity under every
// resolver kind (exact, case-folding, synonym groups) — the partitioned
// build and the parallel probe intern canonical IDs concurrently.
func TestPropertyParJoinMatchesAllEngines(t *testing.T) {
	resolvers := []identity.Resolver{
		identity.Exact{},
		identity.CaseFold{},
		identity.NewSynonyms(identity.CaseFold{},
			[]rel.Value{rel.String("a"), rel.String("b")},
			[]rel.Value{rel.String("c"), rel.String("d")},
		),
	}
	for ri, res := range resolvers {
		g, reg := newWideGen(int64(84 + ri))
		serial := NewAlgebra(res)
		algs := make([]*Algebra, len(parTestWorkers))
		for wi, w := range parTestWorkers {
			algs[wi] = parAlgebra(res, w)
		}
		for i := 0; i < 120; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			ser := mustDrain(serial.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
			ref, err := serial.RefJoin(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "join vs reference", i, ser, ref)
			for _, alg := range algs {
				par := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
				wantSameOrdered(t, "par join", i, par, ser)
			}
		}
	}
}

// parBigInput builds a pair of n-tuple relations with heavy duplicate data
// (every entity appears several times across both) and varied tag sets —
// big enough that partitioned runs on a real pool exercise true concurrent
// builds under -race.
func parBigInput(reg *sourceset.Registry, n int) (*Relation, *Relation) {
	mk := func(name string, base int) *Relation {
		p := NewRelation(name, reg, attrs("KEY/PK", "CAT", "VAL")...)
		for i := 0; i < n; i++ {
			e := base + i/3 // each entity thrice per relation
			origin := sourceset.Of(sourceset.ID(i % 90))
			inter := sourceset.Of(sourceset.ID((i + 7) % 90))
			row := p.NewRow(3)
			row[0] = Cell{D: rel.String("E" + string(rune('A'+e%26)) + string(rune('A'+(e/26)%26))), O: origin}
			row[1] = Cell{D: rel.Int(int64(e % 23)), O: origin, I: inter}
			row[2] = Cell{D: rel.Int(int64(e)), O: origin}
			p.Tuples = append(p.Tuples, row)
		}
		return p
	}
	return mk("P1", 0), mk("P2", n/6)
}

// TestParOpsDeterministicAcrossRunsAndParts: on real worker pools, the
// partitioned join's and difference's output — order included — is
// identical across repeated runs and across worker counts 1, 2, 7 and 16,
// and equal to the serial stream. This is the determinism the partitioned
// path promises (and, under -race, the lock-freedom proof for the
// per-partition builds and the parallel probe).
func TestParOpsDeterministicAcrossRunsAndParts(t *testing.T) {
	reg := sourceset.NewRegistry()
	for i := 0; i < 90; i++ {
		reg.Intern(workloadDBName(i))
	}
	p1, p2 := parBigInput(reg, 3000)
	in := func(p *Relation) Cursor { return NewRelationCursor(p, 128) } // many probe batches
	ops := []struct {
		name string
		run  func(alg *Algebra) (Cursor, error)
	}{
		{"difference", func(alg *Algebra) (Cursor, error) { return alg.StreamDifference(in(p1), in(p2)) }},
		{"join", func(alg *Algebra) (Cursor, error) {
			return alg.StreamJoin(in(p1), "KEY", rel.ThetaEQ, in(p2), "KEY")
		}},
	}
	for _, op := range ops {
		ser := mustDrain(op.run(NewAlgebra(nil)))
		if len(ser.Tuples) == 0 {
			t.Fatalf("%s: degenerate fixture (empty serial result)", op.name)
		}
		for _, w := range parTestWorkers {
			alg := parAlgebra(nil, w)
			for run := 0; run < 2; run++ {
				wantSameOrdered(t, op.name+" (workers/run sweep)", w*10+run, mustDrain(op.run(alg)), ser)
			}
		}
	}
}

// TestAutoDispatchAboveThreshold: a parallel-configured algebra must
// produce serial-identical results — row order included — both below the
// threshold (serial build) and above it (partitioned build), through the
// relation-at-a-time entry points as well as the streaming ones.
func TestAutoDispatchAboveThreshold(t *testing.T) {
	reg := sourceset.NewRegistry()
	for i := 0; i < 90; i++ {
		reg.Intern(workloadDBName(i))
	}
	serialAlg := NewAlgebra(nil)
	parAlg := NewAlgebra(nil)
	parAlg.SetParallel(&Parallel{Pool: exec.NewPool(4), Threshold: 64})
	for _, n := range []int{20, 3000} { // below and above Threshold=64
		p1, p2 := parBigInput(reg, n)
		ser, err := serialAlg.Join(p1, "KEY", rel.ThetaEQ, p2, "KEY")
		if err != nil {
			t.Fatal(err)
		}
		par, err := parAlg.Join(p1, "KEY", rel.ThetaEQ, p2, "KEY")
		if err != nil {
			t.Fatal(err)
		}
		wantSameOrdered(t, "auto join", n, par, ser)

		ser, err = serialAlg.Difference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		par, err = parAlg.Difference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		wantSameOrdered(t, "auto difference", n, par, ser)

		serStr := mustDrain(serialAlg.StreamJoin(cursorOver(p1), "KEY", rel.ThetaEQ, cursorOver(p2), "KEY"))
		parStr := mustDrain(parAlg.StreamJoin(cursorOver(p1), "KEY", rel.ThetaEQ, cursorOver(p2), "KEY"))
		wantSameOrdered(t, "auto stream join", n, parStr, serStr)

		serStr = mustDrain(serialAlg.StreamDifference(cursorOver(p1), cursorOver(p2)))
		parStr = mustDrain(parAlg.StreamDifference(cursorOver(p1), cursorOver(p2)))
		wantSameOrdered(t, "auto stream difference", n, parStr, serStr)
	}
}

// TestParallelCursorPreservesOrder: batches processed on a real pool come
// back in input order whatever order the workers finish in.
func TestParallelCursorPreservesOrder(t *testing.T) {
	reg := sourceset.NewRegistry()
	src := reg.Intern("D0")
	p := NewRelation("P", reg, attrs("A")...)
	for i := 0; i < 5000; i++ {
		p.Tuples = append(p.Tuples, Tuple{Cell{D: rel.Int(int64(i)), O: sourceset.Of(src)}})
	}
	in := NewRelationCursor(p, 16)
	c := ParallelCursor(in, exec.NewPool(4), 8, func(batch []Tuple, emit func([]Tuple) bool) error {
		// Uneven work: later batches finish first without re-sequencing.
		if batch[0][0].D.IntVal()%7 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		// Emit in two chunks: chunk order within a slot must be kept too.
		emit(batch[:len(batch)/2])
		emit(batch[len(batch)/2:])
		return nil
	})
	out, err := Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 5000 {
		t.Fatalf("drained %d rows, want 5000", len(out.Tuples))
	}
	for i, tup := range out.Tuples {
		if tup[0].D.IntVal() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, tup[0].D)
		}
	}
}

// TestParallelCursorPropagatesErrors: fn errors latch, in input order.
func TestParallelCursorPropagatesErrors(t *testing.T) {
	reg := sourceset.NewRegistry()
	p := NewRelation("P", reg, attrs("A")...)
	for i := 0; i < 100; i++ {
		p.Tuples = append(p.Tuples, Tuple{Cell{D: rel.Int(int64(i))}})
	}
	boom := errors.New("boom")
	c := ParallelCursor(NewRelationCursor(p, 10), exec.NewPool(2), 4, func(batch []Tuple, emit func([]Tuple) bool) error {
		if batch[0][0].D.IntVal() >= 50 {
			return boom
		}
		emit(batch)
		return nil
	})
	defer c.Close()
	rows := 0
	for {
		batch, err := c.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("error = %v, want boom", err)
			}
			break
		}
		rows += len(batch)
	}
	if rows != 50 {
		t.Fatalf("delivered %d rows before the error, want 50", rows)
	}
	if _, err := c.Next(); !errors.Is(err, boom) {
		t.Fatal("errors must latch")
	}
}

// closeCounterCursor records Close calls on a wrapped cursor (atomically:
// an abandoning Close may hand the inner close to the dispatcher).
type closeCounterCursor struct {
	Cursor
	closes atomic.Int32
}

func (c *closeCounterCursor) Close() error { c.closes.Add(1); return c.Cursor.Close() }

// TestParallelCursorEarlyClose: closing before exhaustion stops the
// dispatcher and closes the input exactly once — no goroutine leak, no
// deadlock on a full slot queue (run under -race).
func TestParallelCursorEarlyClose(t *testing.T) {
	reg := sourceset.NewRegistry()
	p := NewRelation("P", reg, attrs("A")...)
	for i := 0; i < 100000; i++ {
		p.Tuples = append(p.Tuples, Tuple{Cell{D: rel.Int(int64(i))}})
	}
	inner := &closeCounterCursor{Cursor: NewRelationCursor(p, 8)}
	c := ParallelCursor(inner, exec.NewPool(2), 2, func(batch []Tuple, emit func([]Tuple) bool) error {
		emit(batch)
		return nil
	})
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
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
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want EOF", err)
	}
}
