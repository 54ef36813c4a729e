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
	l, r  Cursor
	built bool
	err   error
}

// fail latches err and returns it.
func (c *probeStream) fail(err error) ([]Tuple, error) {
	c.err = err
	return nil, err
}

func (c *probeStream) Close() error {
	c.err = io.EOF
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
		if mem := a.memActive(); mem != nil {
			d := newDedupSpill(mem, outAttrs, reg)
			defer d.release()
			scratch := make(Tuple, len(idx))
			err := consumeErr(in, func(t Tuple) error {
				for i, ci := range idx {
					scratch[i] = t[ci]
				}
				return d.add(scratch)
			})
			if err != nil {
				return nil, err
			}
			return d.result()
		}
		out := NewRelation("", reg, outAttrs...)
		ix := newDataIndex(rel.DefaultBatchSize)
		scratch := make(Tuple, len(idx))
		err := consume(in, func(t Tuple) {
			for i, ci := range idx {
				scratch[i] = t[ci]
			}
			dedupInsert(out, ix, scratch)
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
		if mem := a.memActive(); mem != nil {
			d := newDedupSpill(mem, attrs, reg)
			defer d.release()
			if err := consumeErr(l, d.add); err != nil {
				r.Close()
				return nil, err
			}
			if err := consumeErr(r, d.add); err != nil {
				return nil, err
			}
			return d.result()
		}
		out := NewRelation("", reg, attrs...)
		ix := newDataIndex(rel.DefaultBatchSize)
		if err := consume(l, func(t Tuple) { dedupInsert(out, ix, t) }); err != nil {
			r.Close()
			return nil, err
		}
		if err := consume(r, func(t Tuple) { dedupInsert(out, ix, t) }); err != nil {
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
		err = consume(l, func(t Tuple) {
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
			if !matched {
				return
			}
			dedupInsert(out, pos, row)
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
	drop func(t Tuple, h uint64) bool
	p2o  sourceset.Set
	seen dataIndex
	// spill, when non-nil, is the budgeted build: the drop side partitioned
	// by data hash with overflow partitions on disk (spill.go). Probe rows
	// hashing to a spilled partition are deferred to probes and anti-joined
	// partition-locally once the probe side is exhausted.
	spill     *spillParts
	probes    []*spillFile
	spillDone bool
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
		if mem := c.a.memActive(); mem != nil {
			if err := c.buildSpilled(mem); err != nil {
				return c.fail(err)
			}
			return c.probe()
		}
		p2, err := Drain(c.r)
		if err != nil {
			return c.fail(err)
		}
		ix := newDataIndex(len(p2.Tuples))
		for i, t := range p2.Tuples {
			ix.add(t.DataHash64(), i)
		}
		c.drop = func(t Tuple, h uint64) bool {
			_, gone := ix.find(p2.Tuples, t, h)
			return gone
		}
		c.p2o = p2.OriginUnion()
	}
	return c.probe()
}

// probe streams the left operand through the drop index, deferring rows
// that hash to spilled partitions, and finishes with the disk phase.
func (c *differenceStream) probe() ([]Tuple, error) {
	for {
		batch, err := c.l.Next()
		if err != nil {
			if err == io.EOF && c.spill != nil && !c.spillDone {
				rows, derr := c.drainSpilled()
				if derr != nil {
					return c.fail(derr)
				}
				if len(rows) > 0 {
					c.err = io.EOF
					return rows, nil
				}
			}
			return c.fail(err)
		}
		start := len(c.out.Tuples)
		for _, t := range batch {
			h := t.DataHash64()
			if c.spill != nil && c.spill.spilled(rel.PartitionOf(h, c.spill.parts())) {
				if err := c.deferProbe(t, h); err != nil {
					return c.fail(err)
				}
				continue
			}
			if c.drop(t, h) {
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

// buildSpilled drains the drop side into a budget-bounded partition set,
// accumulating the p2(o) intermediate union as it goes (exact regardless of
// which partitions stay resident), then indexes the resident rows.
func (c *differenceStream) buildSpilled(mem *Memory) error {
	sp := newSpillParts(mem, c.r.Name(), c.r.Attrs(), c.r.Registry())
	err := consumeErr(c.r, func(t Tuple) error {
		c.p2o = c.p2o.Union(t.OriginUnion())
		return sp.add(rel.PartitionOf(t.DataHash64(), sp.parts()), t)
	})
	if err != nil {
		sp.release()
		return err
	}
	memT := sp.memTuples()
	ix := newDataIndex(len(memT))
	for i, t := range memT {
		ix.add(t.DataHash64(), i)
	}
	c.drop = func(t Tuple, h uint64) bool {
		_, gone := ix.find(memT, t, h)
		return gone
	}
	if sp.anySpilled() {
		c.spill = sp
		c.probes = make([]*spillFile, sp.parts())
	} else {
		sp.release()
	}
	return nil
}

// deferProbe routes a probe row whose data hash lands in a spilled drop
// partition to that partition's probe file. Its duplicates co-partition, so
// skipping the global seen dedup here cannot double-emit.
func (c *differenceStream) deferProbe(t Tuple, h uint64) error {
	p := rel.PartitionOf(h, c.spill.parts())
	if c.probes[p] == nil {
		f, err := newSpillFile(c.spill.mem, "", c.attrs, c.reg)
		if err != nil {
			return err
		}
		c.probes[p] = f
	}
	return c.probes[p].add(t)
}

// drainSpilled runs the disk phase: each spilled drop partition is reloaded
// and its deferred probe rows anti-joined against it, survivors emitted
// with the (already complete) p2(o) union in their intermediate sets.
func (c *differenceStream) drainSpilled() ([]Tuple, error) {
	c.spillDone = true
	start := len(c.out.Tuples)
	for p := 0; p < c.spill.parts(); p++ {
		pf := c.probes[p]
		if pf == nil {
			continue // no probe rows hashed here: nothing can survive
		}
		drops, err := c.spill.files[p].load()
		if err != nil {
			return nil, err
		}
		ix := newDataIndex(len(drops))
		for i, t := range drops {
			ix.add(t.DataHash64(), i)
		}
		probe, err := pf.load()
		if err != nil {
			return nil, err
		}
		pf.discard()
		c.probes[p] = nil
		for _, t := range probe {
			h := t.DataHash64()
			if _, gone := ix.find(drops, t, h); gone {
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
	}
	c.spill.release()
	return c.out.Tuples[start:len(c.out.Tuples):len(c.out.Tuples)], nil
}

// Close releases any spill segments still on disk.
func (c *differenceStream) Close() error {
	c.spill.release()
	for _, f := range c.probes {
		f.discard()
	}
	c.probes = nil
	return c.probeStream.Close()
}

// joinStream is the streaming hash Join for θ = "=": the right operand is
// drained into the interned-ID index on the first Next, then the left is
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
	index    idIndex
	cur      []Tuple // current left batch
	li       int     // current left tuple within cur
	matches  []int32 // pending build-side matches of cur[li]
	mi       int     // next match to emit
	// bspill, when non-nil, is the hybrid-hash state (spill.go): the build
	// side partitioned by canonical key ID with overflow partitions on
	// disk. Resident partitions are indexed in index/p2 and probed in
	// stream; probe rows keyed into spilled partitions are deferred to
	// probes and joined partition-at-a-time once the left is exhausted
	// (leftDone), p2/index swapping to each reloaded partition in turn.
	bspill   *spillParts
	probes   []*spillFile
	leftDone bool
	nextPart int
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
		if mem := c.a.memActive(); mem != nil {
			if err := c.buildSpilled(mem); err != nil {
				return c.fail(err)
			}
		} else {
			p2, err := Drain(c.r)
			if err != nil {
				return c.fail(err)
			}
			c.p2 = p2
			c.index = newIDIndex(c.a.Resolver(), p2.Tuples, c.yi)
		}
	}
	res := c.a.Resolver()
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
			batch, err := c.nextProbe()
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
		c.matches, c.mi = nil, 0
		if !t1[c.xi].D.IsNull() {
			id := res.CanonicalID(t1[c.xi].D)
			if c.bspill != nil && !c.leftDone {
				if p := idPartOf(id, c.bspill.parts()); c.bspill.spilled(p) {
					if err := c.deferProbe(p, t1); err != nil {
						return c.fail(err)
					}
					continue
				}
			}
			c.matches = c.index.lookup(id)
		}
	}
}

// buildSpilled drains the build side into a budget-bounded partition set
// keyed by canonical join-key ID (null keys, which can never match, ride in
// partition 0), then indexes the resident rows. If nothing overflowed, the
// result is the plain in-memory hash join over exactly the drained rows.
func (c *joinStream) buildSpilled(mem *Memory) error {
	res := c.a.Resolver()
	name, attrs, reg := c.r.Name(), c.r.Attrs(), c.r.Registry()
	sp := newSpillParts(mem, name, attrs, reg)
	err := consumeErr(c.r, func(t Tuple) error {
		p := 0
		if !t[c.yi].D.IsNull() {
			p = idPartOf(res.CanonicalID(t[c.yi].D), sp.parts())
		}
		return sp.add(p, t)
	})
	if err != nil {
		sp.release()
		return err
	}
	memT := sp.memTuples()
	c.p2 = NewRelation(name, reg, attrs...)
	c.p2.Tuples = memT
	c.index = newIDIndex(res, memT, c.yi)
	if sp.anySpilled() {
		c.bspill = sp
		c.probes = make([]*spillFile, sp.parts())
	} else {
		sp.release()
	}
	return nil
}

// deferProbe routes a probe row whose key lands in a spilled build
// partition to that partition's probe file.
func (c *joinStream) deferProbe(p int, t Tuple) error {
	if c.probes[p] == nil {
		f, err := newSpillFile(c.bspill.mem, c.l.Name(), c.l.Attrs(), c.reg)
		if err != nil {
			return err
		}
		c.probes[p] = f
	}
	return c.probes[p].add(t)
}

// nextProbe returns the next probe batch: left batches while the left
// lasts, then — in hybrid mode — each spilled partition's deferred probe
// rows, with p2 and the index swapped to that partition's reloaded build
// rows first (safe at a batch boundary: all prior matches are emitted).
func (c *joinStream) nextProbe() ([]Tuple, error) {
	if !c.leftDone {
		batch, err := c.l.Next()
		if err != io.EOF || c.bspill == nil {
			return batch, err
		}
		c.leftDone = true
	}
	res := c.a.Resolver()
	for c.nextPart < c.bspill.parts() {
		p := c.nextPart
		c.nextPart++
		pf := c.probes[p]
		if pf == nil {
			continue // no probe rows keyed into this partition
		}
		build, err := c.bspill.files[p].load()
		if err != nil {
			return nil, err
		}
		c.bspill.files[p].discard()
		c.bspill.files[p] = nil
		probe, err := pf.load()
		if err != nil {
			return nil, err
		}
		pf.discard()
		c.probes[p] = nil
		if len(probe) == 0 {
			continue
		}
		c.p2.Tuples = build
		c.index = newIDIndex(res, build, c.yi)
		return probe, nil
	}
	return nil, io.EOF
}

// Close releases any spill segments still on disk.
func (c *joinStream) Close() error {
	c.bspill.release()
	for _, f := range c.probes {
		f.discard()
	}
	c.probes = nil
	return c.probeStream.Close()
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
// loop of the semi-blocking operators.
func consume(c Cursor, fn func(Tuple)) error {
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
			fn(t)
		}
	}
}
