package core

import (
	"fmt"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file implements the columnar kernels: Union, Difference and
// Intersection over ColBatch operands, cell-for-cell and tag-for-tag
// identical to the row operators (algebra.go) — same first-occurrence
// row order, same tag merges — but running per-column over vectors. Hashing
// is a column-stripe pass (DataHashes), tag sets are dictionary indexes
// merged through a per-pair memo instead of per-cell Set unions, and output
// rows are appended to growing column vectors instead of boxed Cell rows.
// The parity suite (columnar_test.go) proves the equivalence property-style
// against the streaming engine and the string-keyed reference.

// tagMerger memoizes tag-set unions inside one output batch: merging two
// dictionary indexes is computed once per distinct (a, b) pair, then reused
// for every cell that repeats the pair — which in federation workloads is
// nearly all of them.
type tagMerger struct {
	out  *ColBatch
	memo map[uint64]uint32
}

func newTagMerger(out *ColBatch) *tagMerger {
	return &tagMerger{out: out, memo: make(map[uint64]uint32)}
}

// merge returns the dictionary index of Sets[a] ∪ Sets[b].
func (m *tagMerger) merge(a, b uint32) uint32 {
	if a == b || b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	key := uint64(a)<<32 | uint64(b)
	if r, ok := m.memo[key]; ok {
		return r
	}
	r := m.out.InternSet(m.out.Sets[a].Union(m.out.Sets[b]))
	m.memo[key] = r
	return r
}

// mergeSet returns the dictionary index of Sets[a] ∪ s.
func (m *tagMerger) mergeSet(a uint32, s sourceset.Set) uint32 {
	return m.merge(a, m.out.InternSet(s))
}

// importDict interns every set of in's dictionary into out, returning the
// index translation vector — after which a whole input batch's tag columns
// read as out-dictionary indexes with one array lookup per cell.
func importDict(out, in *ColBatch) []uint32 {
	d := make([]uint32, len(in.Sets))
	for i, s := range in.Sets {
		d[i] = out.InternSet(s)
	}
	return d
}

// colInserter inserts rows of one source batch into an output batch under
// the algebra's set semantics: a duplicate data portion merges its tag
// indexes into the existing output row; a new one appends a row to the
// column vectors — the columnar dedupInsertHashed. The equality closure is
// built once per source batch and reads the probe row through the struct,
// so the per-row Find calls don't allocate a capture.
type colInserter struct {
	out  *ColBatch
	ix   rel.BucketIndex
	m    *tagMerger
	src  *ColBatch
	dict []uint32 // src dictionary index -> out dictionary index
	row  int
	same func(int) bool
}

func newColInserter(out *ColBatch, ix rel.BucketIndex, m *tagMerger, src *ColBatch) *colInserter {
	ins := &colInserter{out: out, ix: ix, m: m, src: src, dict: importDict(out, src)}
	ins.same = func(at int) bool { return dataEqualAt(ins.out, at, ins.src, ins.row) }
	return ins
}

// insert adds row i of src (pre-hashed to h), reporting whether a row was
// appended rather than merged.
func (ins *colInserter) insert(i int, h uint64) bool {
	out, src, dict := ins.out, ins.src, ins.dict
	ins.row = i
	if at, dup := ins.ix.Find(h, ins.same); dup {
		for ci := range out.Data {
			out.OTag[ci][at] = ins.m.merge(out.OTag[ci][at], dict[src.OTag[ci][i]])
			out.ITag[ci][at] = ins.m.merge(out.ITag[ci][at], dict[src.ITag[ci][i]])
		}
		return false
	}
	for ci := range out.Data {
		out.Data[ci].Append(src.Data[ci].Value(i))
		out.OTag[ci] = append(out.OTag[ci], dict[src.OTag[ci][i]])
		out.ITag[ci] = append(out.ITag[ci], dict[src.ITag[ci][i]])
	}
	ins.ix.Add(h, out.n)
	out.n++
	out.rows = nil
	return true
}

// reserveDoubling keeps out's vectors ahead of its append loop when the
// output size is unknown: capacity doubles from a 1024-row floor, so the
// growth series totals ~2x the final size instead of the ~5x that append's
// large-slice growth factor accumulates. It returns the new reservation.
func reserveDoubling(out *ColBatch, reserved int) int {
	if out.n < reserved {
		return reserved
	}
	step := reserved
	if step < 1024 {
		step = 1024
	}
	out.Grow(step)
	return reserved + step
}

// originUnionCol returns b(o): the union of every origin set referenced by
// b's tag columns — each distinct dictionary entry folded in once.
func originUnionCol(b *ColBatch) sourceset.Set {
	var s sourceset.Set
	folded := make([]bool, len(b.Sets))
	for ci := range b.OTag {
		for _, ix := range b.OTag[ci] {
			if !folded[ix] {
				folded[ix] = true
				s = s.Union(b.Sets[ix])
			}
		}
	}
	return s
}

// rowOriginUnion returns the union of the origin sets of row i's cells.
func rowOriginUnion(b *ColBatch, i int) sourceset.Set {
	var s sourceset.Set
	for ci := range b.OTag {
		s = s.Union(b.Sets[b.OTag[ci][i]])
	}
	return s
}

// ColUnion is the columnar Union primitive: the deduplicated rows of p1 then
// p2 in first-occurrence order, duplicate data portions merging their tag
// sets cell by cell — identical to Algebra.Union on the row views.
func ColUnion(p1, p2 *ColBatch) (*ColBatch, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: union of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	out := NewColBatch("", p1.Reg, p1.Attrs)
	m := newTagMerger(out)
	n := p1.Len()
	if p2.Len() > n {
		n = p2.Len()
	}
	// Reserve the larger input's row count: union outputs rarely exceed it
	// (duplicates merge), and a miss only resumes append growth.
	out.Grow(n)
	ix := rel.NewBucketIndex(n)
	var hashes []uint64
	for _, src := range [...]*ColBatch{p1, p2} {
		hashes = src.DataHashes(hashes)
		ins := newColInserter(out, ix, m, src)
		for i := 0; i < src.Len(); i++ {
			ins.insert(i, hashes[i])
		}
	}
	return out, nil
}

// ColDifference is the columnar Difference primitive p1 − p2: the rows of
// p1 whose data portion does not occur in p2 (first occurrences only), with
// p2(o) added to every cell's intermediate set — identical to
// Algebra.Difference on the row views.
func ColDifference(p1, p2 *ColBatch) (*ColBatch, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: difference of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	drop := rel.NewBucketIndex(p2.Len())
	h2 := p2.DataHashes(nil)
	for i := range h2 {
		drop.Add(h2[i], i)
	}
	p2o := originUnionCol(p2)
	out := NewColBatch("", p1.Reg, p1.Attrs)
	seen := rel.NewBucketIndex(p1.Len())
	dict := importDict(out, p1)
	// iDict maps p1's intermediate tag indexes to their p2o-augmented output
	// indexes lazily — one union per distinct input set, not per cell.
	iDict := make([]uint32, len(p1.Sets))
	iDone := make([]bool, len(p1.Sets))
	// drop keeps its own copy of every entry's hash, so h2's buffer is free
	// to reuse for the probe side.
	h1 := p1.DataHashes(h2)
	// The probe closures are built once and read the loop row through probe,
	// so the per-row Find calls don't allocate captures.
	probe := 0
	reserved := 0
	dropSame := func(at int) bool { return dataEqualAt(p2, at, p1, probe) }
	seenSame := func(at int) bool { return dataEqualAt(out, at, p1, probe) }
	for i := 0; i < p1.Len(); i++ {
		h := h1[i]
		probe = i
		if _, gone := drop.Find(h, dropSame); gone {
			continue
		}
		if _, dup := seen.Find(h, seenSame); dup {
			continue
		}
		reserved = reserveDoubling(out, reserved)
		for ci := range out.Data {
			out.Data[ci].Append(p1.Data[ci].Value(i))
			out.OTag[ci] = append(out.OTag[ci], dict[p1.OTag[ci][i]])
			it := p1.ITag[ci][i]
			if !iDone[it] {
				iDict[it] = out.InternSet(p1.Sets[it].Union(p2o))
				iDone[it] = true
			}
			out.ITag[ci] = append(out.ITag[ci], iDict[it])
		}
		seen.Add(h, out.n)
		out.n++
	}
	out.rows = nil
	return out, nil
}

// ColIntersect is the columnar Intersection: rows of p1 whose data portion
// occurs in p2, each match merging the p2 row's tags and adding both rows'
// origin unions to every cell's intermediate set, deduplicated in
// first-occurrence order — identical to Algebra.Intersect on the row views.
func ColIntersect(p1, p2 *ColBatch) (*ColBatch, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: intersect of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	ix2 := rel.NewBucketIndex(p2.Len())
	h2 := p2.DataHashes(nil)
	for i := range h2 {
		ix2.Add(h2[i], i)
	}
	out := NewColBatch("", p1.Reg, p1.Attrs)
	m := newTagMerger(out)
	dict1 := importDict(out, p1)
	dict2 := importDict(out, p2)
	// o2ix caches the per-build-row origin-union dictionary index, computed
	// on first match.
	o2ix := make([]uint32, p2.Len())
	o2done := make([]bool, p2.Len())
	pos := rel.NewBucketIndex(rel.DefaultBatchSize)
	degree := p1.Degree()
	// The scratch row accumulates its tags as output-dictionary indexes, so
	// every union in the probe loop runs through the tag-merge memo — the
	// Set work is one union per distinct index pair, not one per match.
	rowD := make([]rel.Value, degree)
	rowO := make([]uint32, degree)
	rowI := make([]uint32, degree)
	// ix2 keeps its own copy of every entry's hash; reuse h2's buffer.
	h1 := p1.DataHashes(h2)
	// One match closure for the whole probe, reading the loop row (and the
	// matched flag) through captured locals — no per-row allocation.
	probe := 0
	reserved := 0
	matched := false
	var o1ix uint32
	match := func(mi int) bool {
		if !dataEqualAt(p2, mi, p1, probe) {
			return true
		}
		if !matched {
			matched = true
			o1ix = 0
			for ci := 0; ci < degree; ci++ {
				rowD[ci] = p1.Data[ci].Value(probe)
				rowO[ci] = dict1[p1.OTag[ci][probe]]
				rowI[ci] = dict1[p1.ITag[ci][probe]]
				o1ix = m.merge(o1ix, rowO[ci])
			}
		}
		if !o2done[mi] {
			var o uint32
			for ci := 0; ci < degree; ci++ {
				o = m.merge(o, dict2[p2.OTag[ci][mi]])
			}
			o2ix[mi] = o
			o2done[mi] = true
		}
		// mediators: the union of both rows' origin sets, added to every
		// cell's intermediate set (WithIntermediate on the row path).
		mix := m.merge(o1ix, o2ix[mi])
		for ci := 0; ci < degree; ci++ {
			rowO[ci] = m.merge(rowO[ci], dict2[p2.OTag[ci][mi]])
			rowI[ci] = m.merge(rowI[ci], m.merge(dict2[p2.ITag[ci][mi]], mix))
		}
		return true
	}
	posSame := func(at int) bool {
		for ci := range rowD {
			if !out.Data[ci].Value(at).Identical(rowD[ci]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < p1.Len(); i++ {
		probe, matched = i, false
		ix2.ForEach(h1[i], match)
		if !matched {
			continue
		}
		if at, dup := pos.Find(h1[i], posSame); dup {
			for ci := range out.Data {
				out.OTag[ci][at] = m.merge(out.OTag[ci][at], rowO[ci])
				out.ITag[ci][at] = m.merge(out.ITag[ci][at], rowI[ci])
			}
			continue
		}
		reserved = reserveDoubling(out, reserved)
		for ci := range out.Data {
			out.Data[ci].Append(rowD[ci])
			out.OTag[ci] = append(out.OTag[ci], rowO[ci])
			out.ITag[ci] = append(out.ITag[ci], rowI[ci])
		}
		pos.Add(h1[i], out.n)
		out.n++
		out.rows = nil
	}
	return out, nil
}

// dataEqualRowValues reports whether output row at matches the scratch data
// row — kept for kernels that probe with materialized values.
func dataEqualRowValues(out *ColBatch, at int, row []rel.Value) bool {
	for ci := range row {
		if !out.Data[ci].Value(at).Identical(row[ci]) {
			return false
		}
	}
	return true
}
