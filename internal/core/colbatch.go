package core

import (
	"fmt"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file implements the tagged column-major batch: the polygen triplet
// (c(d), c(o), c(i)) in struct-of-arrays form. The data portion of each
// attribute is a rel.Column; the two tag portions are fixed-width columns of
// uint32 indexes into a per-batch dictionary of distinct sourceset.Sets.
// Dictionary encoding is what keeps tag columns cheap: a federation query
// touches a handful of distinct tag sets, repeated across hundreds of
// thousands of cells, so each cell's two tags cost eight bytes instead of
// two 32-byte Set headers. The batch is a frame format, not an execution
// form: it carries the mediator's queryopen stream and unary answers, and
// every operator runs over the row view (Rows).

// ColBatch is a column-major polygen batch: one data vector plus two tag
// index columns per attribute, all rows the same length.
//
// Sets is the batch's tag dictionary; Sets[0] is always the empty set, so a
// zeroed tag column means "no tags". OTag[ci][row] and ITag[ci][row] index
// Sets. The exported fields let the wire codec map decoded frames directly
// onto a batch; use BuildColBatch to validate untrusted vectors.
type ColBatch struct {
	Name  string
	Attrs []Attr
	Reg   *sourceset.Registry
	Data  []rel.Column
	OTag  [][]uint32
	ITag  [][]uint32
	Sets  []sourceset.Set

	n     int
	setIx rel.BucketIndex // interns Sets: hash -> dictionary index
	rows  []Tuple         // lazy row-view cache; see Rows
}

// NewColBatch returns an empty tagged columnar batch.
func NewColBatch(name string, reg *sourceset.Registry, attrs []Attr) *ColBatch {
	d := len(attrs)
	b := &ColBatch{
		Name:  name,
		Attrs: attrs,
		Reg:   reg,
		Data:  make([]rel.Column, d),
		OTag:  make([][]uint32, d),
		ITag:  make([][]uint32, d),
		Sets:  []sourceset.Set{sourceset.Empty()},
		setIx: rel.NewBucketIndex(8),
	}
	b.setIx.Add(sourceset.Empty().Hash64(), 0)
	return b
}

// BuildColBatch assembles a batch from decoded vectors (the wire codec's
// entry point), validating every vector length and tag index against n. The
// sets dictionary must have the empty set at index 0.
func BuildColBatch(name string, reg *sourceset.Registry, attrs []Attr, data []rel.Column, otag, itag [][]uint32, sets []sourceset.Set, n int) (*ColBatch, error) {
	d := len(attrs)
	if len(data) != d || len(otag) != d || len(itag) != d {
		return nil, fmt.Errorf("core: batch has %d/%d/%d columns for %d attributes", len(data), len(otag), len(itag), d)
	}
	if len(sets) == 0 || !sets[0].IsEmpty() {
		return nil, fmt.Errorf("core: tag dictionary must start with the empty set")
	}
	for ci := 0; ci < d; ci++ {
		if err := data[ci].Validate(n); err != nil {
			return nil, fmt.Errorf("core: attribute %d: %w", ci, err)
		}
		if len(otag[ci]) != n || len(itag[ci]) != n {
			return nil, fmt.Errorf("core: attribute %d has %d/%d tag rows for %d rows", ci, len(otag[ci]), len(itag[ci]), n)
		}
		for _, ix := range otag[ci] {
			if int(ix) >= len(sets) {
				return nil, fmt.Errorf("core: origin tag index %d outside dictionary of %d", ix, len(sets))
			}
		}
		for _, ix := range itag[ci] {
			if int(ix) >= len(sets) {
				return nil, fmt.Errorf("core: intermediate tag index %d outside dictionary of %d", ix, len(sets))
			}
		}
	}
	b := &ColBatch{Name: name, Attrs: attrs, Reg: reg, Data: data, OTag: otag, ITag: itag, Sets: sets, n: n}
	b.setIx = rel.NewBucketIndex(len(sets))
	for i, s := range sets {
		b.setIx.Add(s.Hash64(), i)
	}
	return b, nil
}

// FromRelation converts a materialized polygen relation to columnar form.
func FromRelation(p *Relation) *ColBatch {
	b := NewColBatch(p.Name, p.Reg, p.Attrs)
	for _, t := range p.Tuples {
		b.AppendTuple(t)
	}
	return b
}

// Len returns the number of rows.
func (b *ColBatch) Len() int { return b.n }

// Degree returns the number of attributes.
func (b *ColBatch) Degree() int { return len(b.Attrs) }

// InternSet returns the dictionary index of s, adding it on first use.
func (b *ColBatch) InternSet(s sourceset.Set) uint32 {
	if s.IsEmpty() {
		return 0
	}
	h := s.Hash64()
	if at, ok := b.setIx.Find(h, func(pos int) bool { return b.Sets[pos].Equal(s) }); ok {
		return uint32(at)
	}
	ix := uint32(len(b.Sets))
	b.Sets = append(b.Sets, s)
	b.setIx.Add(h, int(ix))
	return ix
}

// AppendTuple adds one row, interning its tag sets.
func (b *ColBatch) AppendTuple(t Tuple) {
	for ci := range b.Data {
		c := t[ci]
		b.Data[ci].Append(c.D)
		b.OTag[ci] = append(b.OTag[ci], b.InternSet(c.O))
		b.ITag[ci] = append(b.ITag[ci], b.InternSet(c.I))
	}
	b.n++
	b.rows = nil
}

// Rows returns row views over the batch: cell tuples carved from one
// batch-owned arena (computed once and cached), satisfying the core.Cursor
// batch contract — immutable and valid for the life of the batch.
func (b *ColBatch) Rows() []Tuple {
	if b.rows != nil || b.n == 0 {
		return b.rows
	}
	d := len(b.Attrs)
	if d == 0 {
		rows := make([]Tuple, b.n)
		for i := range rows {
			rows[i] = Tuple{}
		}
		b.rows = rows
		return b.rows
	}
	arena := make([]Cell, b.n*d)
	for ci := range b.Data {
		col := &b.Data[ci]
		ot, it := b.OTag[ci], b.ITag[ci]
		for i := 0; i < b.n; i++ {
			arena[i*d+ci] = Cell{D: col.Value(i), O: b.Sets[ot[i]], I: b.Sets[it[i]]}
		}
	}
	rows := make([]Tuple, b.n)
	for i := range rows {
		rows[i] = arena[i*d : (i+1)*d : (i+1)*d]
	}
	b.rows = rows
	return b.rows
}

// Relation materializes the batch as a polygen relation (rows alias the
// batch's row-view arena).
func (b *ColBatch) Relation() *Relation {
	return &Relation{Name: b.Name, Attrs: b.Attrs, Reg: b.Reg, Tuples: b.Rows()}
}

// TagColumns converts a plain columnar batch into a tagged one: every value
// mapped through its column's fn (nil slice or nil fn means identity), every
// cell tagged with the constant origin and intermediate sets — the columnar
// form of the PQP's tagging scan. The tag columns are a constant-fill of two
// dictionary indexes, so tagging a batch costs the value mapping plus two
// uint32 vectors per column, not a Set pair per cell.
func TagColumns(name string, reg *sourceset.Registry, attrs []Attr, rb *rel.ColBatch, fns []func(rel.Value) rel.Value, origin, inter sourceset.Set) *ColBatch {
	b := NewColBatch(name, reg, attrs)
	o := b.InternSet(origin)
	it := b.InternSet(inter)
	n := rb.Len()
	for ci := range b.Data {
		col := rb.Col(ci)
		var fn func(rel.Value) rel.Value
		if fns != nil {
			fn = fns[ci]
		}
		for ri := 0; ri < n; ri++ {
			v := col.Value(ri)
			if fn != nil {
				v = fn(v)
			}
			b.Data[ci].Append(v)
		}
		ot := make([]uint32, n)
		itv := make([]uint32, n)
		for ri := range ot {
			ot[ri] = o
			itv[ri] = it
		}
		b.OTag[ci] = ot
		b.ITag[ci] = itv
	}
	b.n = n
	return b
}

// ColCursor is the columnar capability of a core.Cursor: NextCol yields the
// next batch in column-major form (nil, io.EOF when exhausted). Next is
// NextCol plus the row view, so interleaving is allowed.
type ColCursor interface {
	Cursor
	NextCol() (*ColBatch, error)
}
