package core

import (
	"fmt"
	"io"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file implements the streaming execution engine for the polygen
// algebra: every operator consumes Cursors and is one, so a plan runs as a
// tree of cursors with batches flowing through it instead of a sequence of
// fully materialized relations. Each operator pipelines as far as its §II
// semantics allow:
//
//   - Select, Restrict and Product are fully pipelined: one input batch (plus,
//     for Product, the materialized right operand) is in flight at a time.
//   - Join and Difference build their hash side (the right operand) by
//     draining its cursor, then stream the probe side batch-at-a-time.
//   - Project, Union and Intersect consume their inputs batch-at-a-time but
//     emit only at end-of-input: collapsing duplicate data portions unions
//     tag sets into already-accepted tuples (paper §II), so no tuple's tags
//     are final until all input has been seen. Their memory is bounded by
//     the deduplicated output, not by the inputs.
//   - Under a Memory budget (budget.go), Project, Union, Difference and the
//     equi-Join charge every row their build or dedup table keeps and fail
//     with ErrOverBudget past it.
//   - Merge is a pipeline breaker: a key's merged row is final only once
//     every fragment has been seen, so the operands are materialized, merged
//     in one keyed pass and the result is streamed out.
//
// These are the algebra's only implementations of the hash operators: the
// relation-at-a-time entry points (Project, Union, Join, ...) drain them.
// Their kernels — dedupInsert set-semantics insertion, interned-ID join
// probes, arena rows — are proven by the property suite (property_test.go)
// to agree with the string-keyed reference operators (reference.go) cell
// for cell, data and both tag sets.

// streamFilter implements the fully pipelined operators (Select, Restrict):
// tuples that satisfy keep survive with the mediators' origins added to
// every cell's intermediate set.
type streamFilter struct {
	header
	in   Cursor
	out  *Relation // arena holder for output rows
	keep func(Tuple) bool
	med  func(Tuple) sourceset.Set
}

func (c *streamFilter) Next() ([]Tuple, error) {
	for {
		batch, err := c.in.Next()
		if err != nil {
			return nil, err
		}
		var rows []Tuple
		for _, t := range batch {
			if !c.keep(t) {
				continue
			}
			med := c.med(t)
			row := c.out.NewRow(len(t))
			for i, cell := range t {
				row[i] = cell.WithIntermediate(med)
			}
			rows = append(rows, row)
		}
		if len(rows) > 0 {
			return rows, nil
		}
	}
}

func (c *streamFilter) Close() error { return c.in.Close() }

// StreamSelect is the streaming Select primitive p[x θ const]: fully
// pipelined, semantics identical to Select.
func (a *Algebra) StreamSelect(in Cursor, x string, theta rel.Theta, constant rel.Value) (Cursor, error) {
	xi, err := colIn(in.Name(), in.Attrs(), x)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &streamFilter{
		header: header{attrs: in.Attrs(), reg: in.Registry()},
		in:     in,
		out:    NewRelation("", in.Registry(), in.Attrs()...),
		keep:   func(t Tuple) bool { return theta.Eval(t[xi].D, constant) },
		med:    func(t Tuple) sourceset.Set { return t[xi].O },
	}, nil
}

// StreamRestrict is the streaming Restrict primitive p[x θ y]: fully
// pipelined, semantics identical to Restrict.
func (a *Algebra) StreamRestrict(in Cursor, x string, theta rel.Theta, y string) (Cursor, error) {
	xi, err := colIn(in.Name(), in.Attrs(), x)
	if err != nil {
		in.Close()
		return nil, err
	}
	yi, err := colIn(in.Name(), in.Attrs(), y)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &streamFilter{
		header: header{attrs: in.Attrs(), reg: in.Registry()},
		in:     in,
		out:    NewRelation("", in.Registry(), in.Attrs()...),
		keep:   func(t Tuple) bool { return a.evalTheta(t[xi].D, theta, t[yi].D) },
		med:    func(t Tuple) sourceset.Set { return t[xi].O.Union(t[yi].O) },
	}, nil
}

// deferredStream consumes its inputs on the first Next call (via build,
// which must close them) and then streams the built relation. It is the
// shape of the semi-blocking operators: input is never materialized as a
// whole, but output emission waits for end-of-input. A build failure is
// sticky: every subsequent Next returns it again.
type deferredStream struct {
	header
	ins   []Cursor
	build func() (*Relation, error)
	emit  Cursor
	built bool
	err   error
}

func (c *deferredStream) Next() ([]Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	if !c.built {
		c.built = true
		p, err := c.build()
		if err != nil {
			c.err = err
			return nil, err
		}
		c.emit = NewRelationCursor(p, rel.DefaultBatchSize)
	}
	batch, err := c.emit.Next()
	if err != nil {
		c.err = err
	}
	return batch, err
}

func (c *deferredStream) Close() error {
	if c.built {
		return nil // build already closed the inputs
	}
	c.built = true
	c.err = io.EOF
	return closeAll(c.ins)
}

// probeStream is the common state of the build-then-probe operators (Join,
// Difference, Product): the right operand r is drained on the first Next,
// then the left l is streamed through it. Errors — the build failure, a
// probe-side failure, and exhaustion — latch into err so a retried Next
// cannot observe half-built state.
type probeStream struct {
	header
	l, r   Cursor
	built  bool
	closed bool // both operands closed
	err    error
}

// fail latches err and returns it.
func (c *probeStream) fail(err error) ([]Tuple, error) {
	c.err = err
	return nil, err
}

// failBuild latches a build failure and closes the probe side too, so a
// refused build releases both operands at once (the build closed r).
func (c *probeStream) failBuild(err error) ([]Tuple, error) {
	c.closed = true
	c.l.Close()
	return c.fail(err)
}

func (c *probeStream) Close() error {
	c.err = io.EOF
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.l.Close()
	if !c.built {
		c.built = true
		if rerr := c.r.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// StreamProject is the streaming Project primitive p[X]: input consumed
// batch-at-a-time, duplicates collapsed with tag unions as they arrive, the
// deduplicated result emitted at end-of-input.
func (a *Algebra) StreamProject(in Cursor, attrs []string) (Cursor, error) {
	idx := make([]int, len(attrs))
	outAttrs := make([]Attr, len(attrs))
	for i, name := range attrs {
		ci, err := colIn(in.Name(), in.Attrs(), name)
		if err != nil {
			in.Close()
			return nil, err
		}
		idx[i] = ci
		outAttrs[i] = in.Attrs()[ci]
	}
	reg := in.Registry()
	build := func() (*Relation, error) {
		out := NewRelation("", reg, outAttrs...)
		ix := newDataIndex(rel.DefaultBatchSize)
		scratch := make(Tuple, len(idx))
		err := consume(in, a.budget("project"), func(t Tuple) bool {
			for i, ci := range idx {
				scratch[i] = t[ci]
			}
			return dedupInsert(out, ix, scratch)
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return &deferredStream{
		header: header{attrs: outAttrs, reg: reg},
		ins:    []Cursor{in},
		build:  build,
	}, nil
}

// StreamUnion is the streaming Union primitive: both inputs consumed
// batch-at-a-time into the dedup table (tag unions on duplicate data), the
// result emitted at end-of-input.
func (a *Algebra) StreamUnion(l, r Cursor) (Cursor, error) {
	if len(l.Attrs()) != len(r.Attrs()) {
		closeAll([]Cursor{l, r})
		return nil, fmt.Errorf("core: union of degree %d with degree %d", len(l.Attrs()), len(r.Attrs()))
	}
	attrs := l.Attrs()
	reg := l.Registry()
	build := func() (*Relation, error) {
		out := NewRelation("", reg, attrs...)
		ix := newDataIndex(rel.DefaultBatchSize)
		insert := func(t Tuple) bool { return dedupInsert(out, ix, t) }
		b := a.budget("union")
		if err := consume(l, b, insert); err != nil {
			r.Close()
			return nil, err
		}
		if err := consume(r, b, insert); err != nil {
			return nil, err
		}
		return out, nil
	}
	return &deferredStream{
		header: header{attrs: attrs, reg: reg},
		ins:    []Cursor{l, r},
		build:  build,
	}, nil
}

// StreamIntersect is the streaming Intersection: the right operand is
// drained into a hash index, the left is consumed batch-at-a-time against
// it, and — because matching merges tags into already-accepted tuples — the
// result is emitted at end-of-input.
func (a *Algebra) StreamIntersect(l, r Cursor) (Cursor, error) {
	if len(l.Attrs()) != len(r.Attrs()) {
		closeAll([]Cursor{l, r})
		return nil, fmt.Errorf("core: intersect of degree %d with degree %d", len(l.Attrs()), len(r.Attrs()))
	}
	attrs := l.Attrs()
	reg := l.Registry()
	degree := len(attrs)
	build := func() (*Relation, error) {
		p2, err := Drain(r)
		if err != nil {
			l.Close()
			return nil, err
		}
		index := newDataIndex(len(p2.Tuples))
		for i, t := range p2.Tuples {
			index.add(t.DataHash64(), i)
		}
		out := NewRelation("", reg, attrs...)
		pos := newDataIndex(rel.DefaultBatchSize)
		scratch := make(Tuple, 0, degree)
		err = consume(l, nil, func(t Tuple) bool {
			h := t.DataHash64()
			matched := false
			row := scratch[:len(t)]
			index.ForEach(h, func(mi int) bool {
				m := p2.Tuples[mi]
				if !m.DataEqual(t) {
					return true
				}
				if !matched {
					matched = true
					copy(row, t)
				}
				mediators := t.OriginUnion().Union(m.OriginUnion())
				for i := range row {
					row[i] = row[i].MergeTags(m[i]).WithIntermediate(mediators)
				}
				return true
			})
			return matched && dedupInsert(out, pos, row)
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return &deferredStream{
		header: header{attrs: attrs, reg: reg},
		ins:    []Cursor{l, r},
		build:  build,
	}, nil
}

// differenceStream is the streaming Difference p1 − p2: p2 drained into the
// drop index on the first Next, then p1 streamed through it — surviving
// first occurrences are emitted batch-at-a-time with p2(o) added to their
// intermediate sets.
type differenceStream struct {
	probeStream
	a    *Algebra
	out  *Relation
	p2   []Tuple   // the drained drop side
	drop dataIndex // p2 by data hash
	p2o  sourceset.Set
	seen dataIndex
}

// StreamDifference is the streaming Difference primitive.
func (a *Algebra) StreamDifference(l, r Cursor) (Cursor, error) {
	if len(l.Attrs()) != len(r.Attrs()) {
		closeAll([]Cursor{l, r})
		return nil, fmt.Errorf("core: difference of degree %d with degree %d", len(l.Attrs()), len(r.Attrs()))
	}
	return &differenceStream{
		probeStream: probeStream{
			header: header{attrs: l.Attrs(), reg: l.Registry()},
			l:      l,
			r:      r,
		},
		a:    a,
		out:  NewRelation("", l.Registry(), l.Attrs()...),
		seen: newDataIndex(rel.DefaultBatchSize),
	}, nil
}

func (c *differenceStream) Next() ([]Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	if !c.built {
		c.built = true
		p2, err := buildSide(c.r, c.a.budget("difference"))
		if err != nil {
			return c.failBuild(err)
		}
		c.p2 = p2.Tuples
		c.drop = newDataIndex(len(p2.Tuples))
		for i, t := range p2.Tuples {
			c.drop.add(t.DataHash64(), i)
		}
		c.p2o = p2.OriginUnion()
	}
	for {
		batch, err := c.l.Next()
		if err != nil {
			return c.fail(err)
		}
		start := len(c.out.Tuples)
		for _, t := range batch {
			h := t.DataHash64()
			if _, gone := c.drop.find(c.p2, t, h); gone {
				continue
			}
			if _, dup := c.seen.find(c.out.Tuples, t, h); dup {
				continue
			}
			row := c.out.NewRow(len(t))
			for i, cell := range t {
				row[i] = cell.WithIntermediate(c.p2o)
			}
			c.seen.add(h, len(c.out.Tuples))
			c.out.Tuples = append(c.out.Tuples, row)
		}
		if len(c.out.Tuples) > start {
			return c.out.Tuples[start:len(c.out.Tuples):len(c.out.Tuples)], nil
		}
	}
}

// joinStream is the streaming hash Join for θ = "=": the right operand is
// drained into the canonical-key index on the first Next, then the left is
// streamed through it, joined rows emitted in batches capped at
// DefaultBatchSize — a skewed many-to-many key cannot blow one Next() up
// to the full fan-out.
type joinStream struct {
	probeStream
	a        *Algebra
	xi, yi   int
	coalesce bool
	out      *Relation
	p2       *Relation
	index    keyIndex
	cur      []Tuple // current left batch
	li       int     // current left tuple within cur
	matches  []int32 // pending build-side matches of cur[li]
	mi       int     // next match to emit
}

// StreamJoin is the streaming derived Join operator p1[x θ y]p2. For θ = "="
// it is a hash join that builds on the right and streams the left; for
// other θ it falls back to the primitive composition over the drained
// operands (semantics identical to JoinViaPrimitives), emitting the result
// as a stream.
func (a *Algebra) StreamJoin(l Cursor, x string, theta rel.Theta, r Cursor, y string) (Cursor, error) {
	xi, err := colIn(l.Name(), l.Attrs(), x)
	if err != nil {
		closeAll([]Cursor{l, r})
		return nil, err
	}
	yi, err := colIn(r.Name(), r.Attrs(), y)
	if err != nil {
		closeAll([]Cursor{l, r})
		return nil, err
	}
	coalesce := joinCoalesces(l.Attrs()[xi], r.Attrs()[yi])
	attrs := joinAttrs(l.Attrs(), xi, r.Name(), r.Attrs(), yi, coalesce)
	reg := l.Registry()
	if theta != rel.ThetaEQ {
		build := func() (*Relation, error) {
			p1, err := Drain(l)
			if err != nil {
				r.Close()
				return nil, err
			}
			p2, err := Drain(r)
			if err != nil {
				return nil, err
			}
			return a.JoinViaPrimitives(p1, x, theta, p2, y)
		}
		return &deferredStream{
			header: header{attrs: attrs, reg: reg},
			ins:    []Cursor{l, r},
			build:  build,
		}, nil
	}
	return &joinStream{
		probeStream: probeStream{
			header: header{attrs: attrs, reg: reg},
			l:      l,
			r:      r,
		},
		a:        a,
		xi:       xi,
		yi:       yi,
		coalesce: coalesce,
		out:      NewRelation("", reg, attrs...),
	}, nil
}

func (c *joinStream) Next() ([]Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	if !c.built {
		c.built = true
		p2, err := buildSide(c.r, c.a.budget("join"))
		if err != nil {
			return c.failBuild(err)
		}
		c.p2 = p2
		c.index = buildKeyIndex(c.a.Resolver(), p2.Tuples, c.yi)
	}
	rows := make([]Tuple, 0, rel.DefaultBatchSize)
	for {
		// Emit pending matches of the current left tuple, up to the cap.
		for c.mi < len(c.matches) && len(rows) < rel.DefaultBatchSize {
			rows = append(rows, c.a.joinRow(c.out, c.cur[c.li], c.xi, c.p2.Tuples[c.matches[c.mi]], c.yi, c.coalesce))
			c.mi++
		}
		if len(rows) >= rel.DefaultBatchSize {
			return rows, nil
		}
		// Advance to the next left tuple, pulling the next batch at the end
		// (tolerating empty batches, though cursors do not produce them).
		c.li++
		for c.li >= len(c.cur) {
			batch, err := c.l.Next()
			if err != nil {
				if err == io.EOF && len(rows) > 0 {
					c.err = io.EOF
					return rows, nil
				}
				return c.fail(err)
			}
			c.cur, c.li = batch, 0
		}
		t1 := c.cur[c.li]
		c.matches, c.mi = c.matches[:0], 0
		if !t1[c.xi].D.IsNull() {
			c.matches = c.index.lookup(t1[c.xi].D, c.matches)
		}
	}
}

// productStream is the streaming Cartesian Product: the right operand is
// drained on the first Next, then each left batch is expanded against it,
// emitting at most DefaultBatchSize rows per Next.
type productStream struct {
	probeStream
	out    *Relation
	right  *Relation
	cur    []Tuple // current left batch
	li, ri int
}

// StreamProduct is the streaming Cartesian Product primitive p1 × p2.
func (a *Algebra) StreamProduct(l, r Cursor) (Cursor, error) {
	attrs := productAttrs(l.Attrs(), r.Name(), r.Attrs())
	return &productStream{
		probeStream: probeStream{
			header: header{attrs: attrs, reg: l.Registry()},
			l:      l,
			r:      r,
		},
		out: NewRelation("", l.Registry(), attrs...),
	}, nil
}

func (c *productStream) Next() ([]Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	if !c.built {
		c.built = true
		right, err := Drain(c.r)
		if err != nil {
			return c.fail(err)
		}
		c.right = right
	}
	if len(c.right.Tuples) == 0 {
		return c.fail(io.EOF)
	}
	rows := make([]Tuple, 0, rel.DefaultBatchSize)
	for {
		if c.li >= len(c.cur) {
			batch, err := c.l.Next()
			if err == io.EOF {
				c.err = io.EOF
				if len(rows) > 0 {
					return rows, nil
				}
				return nil, io.EOF
			}
			if err != nil {
				return c.fail(err)
			}
			c.cur, c.li, c.ri = batch, 0, 0
		}
		t1 := c.cur[c.li]
		for c.ri < len(c.right.Tuples) && len(rows) < rel.DefaultBatchSize {
			t2 := c.right.Tuples[c.ri]
			row := c.out.NewRow(len(t1) + len(t2))
			copy(row, t1)
			copy(row[len(t1):], t2)
			rows = append(rows, row)
			c.ri++
		}
		if c.ri >= len(c.right.Tuples) {
			c.ri = 0
			c.li++
		}
		if len(rows) >= rel.DefaultBatchSize {
			return rows, nil
		}
	}
}

// StreamMerge is the streaming face of Merge: no key's rows are final until
// every fragment has been seen, so the operands are drained (batch-at-a-
// time) into one keyed pass and the merged relation is streamed out.
func (a *Algebra) StreamMerge(scheme *Scheme, ins ...Cursor) (Cursor, error) {
	rels := make([]*Relation, len(ins))
	for i, c := range ins {
		p, err := Drain(c)
		if err != nil {
			closeAll(ins[i+1:])
			return nil, err
		}
		rels[i] = p
	}
	m, err := a.Merge(scheme, rels...)
	if err != nil {
		return nil, err
	}
	return CursorOf(m), nil
}

// consume pulls every tuple of c through fn and closes c. It is the input
// loop of the blocking builds: fn reports whether t became resident state
// (a build row, or a new dedup entry), and each resident row is charged
// against b. Past the budget consume closes c and returns ErrOverBudget; a
// nil b charges nothing.
func consume(c Cursor, b *budget, fn func(Tuple) bool) error {
	for {
		batch, err := c.Next()
		if err == io.EOF {
			return c.Close()
		}
		if err != nil {
			c.Close()
			return err
		}
		for _, t := range batch {
			if fn(t) && b != nil {
				if err := b.charge(t); err != nil {
					c.Close()
					return err
				}
			}
		}
	}
}

// buildSide drains the build operand of a Join or Difference, charging
// every row against b; with no budget it is Drain.
func buildSide(c Cursor, b *budget) (*Relation, error) {
	if b == nil {
		return Drain(c)
	}
	p := NewRelation(c.Name(), c.Registry(), c.Attrs()...)
	err := consume(c, b, func(t Tuple) bool {
		p.Tuples = append(p.Tuples, t)
		return true
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
