package rel

import (
	"fmt"
	"math"
)

// This file implements the column-major batch representation: one typed
// vector per attribute instead of one boxed Value per cell. A ColBatch holds
// the same information as a []Tuple batch, but the wire codec that ships it
// touches packed arrays — a kind byte per row, a uint64 payload word per
// row, string payloads sliced out of one shared blob — instead of chasing
// per-row slice headers. Row views (Rows) are carved out of a single
// batch-owned arena, so handing a columnar batch to a []Tuple consumer
// costs two allocations per batch, not two per row.

// Column is one typed vector of a ColBatch: the values of one attribute
// across the batch's rows, struct-of-arrays style.
//
// Kinds tags every row. Nums packs the fixed-width payloads (int64 bits,
// float64 bits, bool 0/1) and Strs the string payloads; both are lazily
// materialized — a column whose payloads are all zero (every Int(0), Null,
// Bool(false)) keeps Nums nil, and a column with no string rows keeps Strs
// nil. Nulls is a bitmap of the KindNull rows (trailing zero words elided),
// for kernels that want to skip null runs without reading Kinds.
type Column struct {
	Kinds []Kind
	Nums  []uint64
	Strs  []string
	Nulls []uint64
}

// Append adds v as the next row of the column.
func (c *Column) Append(v Value) {
	n := len(c.Kinds)
	k := v.Kind()
	c.Kinds = append(c.Kinds, k)
	var num uint64
	switch k {
	case KindNull:
		c.setNull(n)
	case KindString:
		if c.Strs == nil {
			c.Strs = make([]string, n, cap(c.Kinds))
		}
	case KindInt:
		num = uint64(v.IntVal())
	case KindFloat:
		num = math.Float64bits(v.FloatVal())
	case KindBool:
		if v.BoolVal() {
			num = 1
		}
	}
	if num != 0 && c.Nums == nil {
		c.Nums = make([]uint64, n, cap(c.Kinds))
	}
	if c.Nums != nil {
		c.Nums = append(c.Nums, num)
	}
	if c.Strs != nil {
		s := ""
		if k == KindString {
			s = v.Str()
		}
		c.Strs = append(c.Strs, s)
	}
}

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.Kinds) }

func (c *Column) setNull(i int) {
	w := i >> 6
	for len(c.Nulls) <= w {
		c.Nulls = append(c.Nulls, 0)
	}
	c.Nulls[w] |= 1 << (uint(i) & 63)
}

// SetNull marks row i in the null bitmap. Append maintains the bitmap
// itself; decoders rebuilding a column from its kind tags use SetNull.
func (c *Column) SetNull(i int) { c.setNull(i) }

// IsNull reports whether row i is KindNull, from the bitmap.
func (c *Column) IsNull(i int) bool {
	w := i >> 6
	return w < len(c.Nulls) && c.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// num returns the packed payload word of row i (0 when the column never
// materialized payload storage).
func (c *Column) num(i int) uint64 {
	if c.Nums == nil {
		return 0
	}
	return c.Nums[i]
}

// Value reconstructs the boxed value of row i.
func (c *Column) Value(i int) Value {
	switch c.Kinds[i] {
	case KindString:
		if c.Strs == nil {
			return String("")
		}
		return String(c.Strs[i])
	case KindInt:
		return Int(int64(c.num(i)))
	case KindFloat:
		return Float(math.Float64frombits(c.num(i)))
	case KindBool:
		return Bool(c.num(i) != 0)
	default:
		return Null()
	}
}

// Validate checks the column's vectors are mutually consistent for n rows —
// the decode-side guard for columns built from untrusted wire bytes.
func (c *Column) Validate(n int) error {
	if len(c.Kinds) != n {
		return fmt.Errorf("rel: column has %d kind tags for %d rows", len(c.Kinds), n)
	}
	if c.Nums != nil && len(c.Nums) != n {
		return fmt.Errorf("rel: column has %d payload words for %d rows", len(c.Nums), n)
	}
	if c.Strs != nil && len(c.Strs) != n {
		return fmt.Errorf("rel: column has %d string payloads for %d rows", len(c.Strs), n)
	}
	for _, k := range c.Kinds {
		switch k {
		case KindNull, KindString, KindInt, KindFloat, KindBool:
		default:
			return fmt.Errorf("rel: column has invalid kind tag %d", k)
		}
	}
	return nil
}

// ColBatch is a column-major batch of rows over a schema: one Column per
// attribute, all the same length.
type ColBatch struct {
	schema *Schema
	cols   []Column
	n      int
	rows   []Tuple // lazy row-view cache; see Rows
}

// NewColBatch returns an empty columnar batch over schema.
func NewColBatch(schema *Schema) *ColBatch {
	return &ColBatch{schema: schema, cols: make([]Column, schema.Len())}
}

// BuildColBatch assembles a batch directly from decoded column vectors (the
// wire codec's entry point), validating every vector against n.
func BuildColBatch(schema *Schema, cols []Column, n int) (*ColBatch, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("rel: %d columns for schema %s", len(cols), schema)
	}
	for i := range cols {
		if err := cols[i].Validate(n); err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
	}
	return &ColBatch{schema: schema, cols: cols, n: n}, nil
}

// FromTuples converts a row batch to columnar form.
func FromTuples(schema *Schema, tuples []Tuple) *ColBatch {
	b := NewColBatch(schema)
	for _, t := range tuples {
		b.AppendTuple(t)
	}
	return b
}

// Schema returns the batch's schema.
func (b *ColBatch) Schema() *Schema { return b.schema }

// Len returns the number of rows.
func (b *ColBatch) Len() int { return b.n }

// Col returns the vector of attribute ci.
func (b *ColBatch) Col(ci int) *Column { return &b.cols[ci] }

// Value returns the value at (row, col).
func (b *ColBatch) Value(row, col int) Value { return b.cols[col].Value(row) }

// AppendTuple adds one row. The batch must not have been handed out through
// Rows yet (batches are write-once, then read).
func (b *ColBatch) AppendTuple(t Tuple) {
	for ci := range b.cols {
		b.cols[ci].Append(t[ci])
	}
	b.n++
	b.rows = nil
}

// Rows returns row views over the batch: tuple headers sliced out of one
// batch-owned arena (two allocations per batch, amortized over reuse — the
// view is computed once and cached). The views satisfy the Cursor batch
// contract: immutable, valid for the life of the batch.
func (b *ColBatch) Rows() []Tuple {
	if b.rows != nil || b.n == 0 {
		return b.rows
	}
	d := len(b.cols)
	if d == 0 {
		rows := make([]Tuple, b.n)
		for i := range rows {
			rows[i] = Tuple{}
		}
		b.rows = rows
		return b.rows
	}
	arena := make([]Value, b.n*d)
	for ci := range b.cols {
		c := &b.cols[ci]
		for i := 0; i < b.n; i++ {
			arena[i*d+ci] = c.Value(i)
		}
	}
	rows := make([]Tuple, b.n)
	for i := range rows {
		rows[i] = arena[i*d : (i+1)*d : (i+1)*d]
	}
	b.rows = rows
	return b.rows
}

// ColCursor is the columnar capability of a Cursor: NextCol yields the next
// batch in column-major form (nil, io.EOF when exhausted). Interleaving
// NextCol and Next calls is allowed — both advance the same stream; Next is
// NextCol plus the row view. Prefetch hands the row views along, which alias
// the column batch rather than re-boxing it.
type ColCursor interface {
	Cursor
	NextCol() (*ColBatch, error)
}
