package rel

import (
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
)

// This file implements the column-major batch representation: one typed
// vector per attribute instead of one boxed Value per cell. A ColBatch holds
// the same information as a []Tuple batch, but kernels that hash, compare or
// ship it touch packed arrays — a kind byte per row, a uint64 payload word
// per row, string payloads sliced out of one shared blob — instead of
// chasing per-row slice headers. Row views (Rows) are carved out of a single
// batch-owned arena, exactly like Relation.NewRow's chunks, so handing a
// columnar batch to a []Tuple consumer costs two allocations per batch, not
// two per row.

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

// Grow reserves capacity for n more rows, so a kernel that knows its output
// bound pays one allocation per vector instead of the append growth series
// (which for large slices totals several times the final size). Vectors not
// yet materialized stay lazy — Append sizes them by cap(Kinds) when they
// first materialize, so they inherit the reservation.
func (c *Column) Grow(n int) {
	c.Kinds = slices.Grow(c.Kinds, n)
	if c.Nums != nil {
		c.Nums = slices.Grow(c.Nums, n)
	}
	if c.Strs != nil {
		c.Strs = slices.Grow(c.Strs, n)
	}
}

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

// HashFoldInto folds the column's per-row value hashes into dst — one fold
// accumulator per row, dst[i] starting at HashFoldInit before the first
// column. After every column of a batch is folded in schema order, dst[i]
// equals Tuple.Hash64 of row i exactly: this is the columnar half of the
// combinable hash scheme (see hash.go), hashing a column stripe in one pass
// with no Value boxing.
func (c *Column) HashFoldInto(seed maphash.Seed, dst []uint64) {
	for i := range dst {
		var vh uint64
		switch c.Kinds[i] {
		case KindString:
			s := ""
			if c.Strs != nil {
				s = c.Strs[i]
			}
			vh = maphash.String(seed, s) ^ stringKindMark
		case KindInt:
			vh = scalarHash64(seed, KindInt, c.num(i))
		case KindFloat:
			vh = scalarHash64(seed, KindFloat, floatHashBits(math.Float64frombits(c.num(i))))
		case KindBool:
			vh = scalarHash64(seed, KindBool, c.num(i))
		default:
			vh = scalarHash64(seed, c.Kinds[i], 0)
		}
		dst[i] = HashFold(dst[i], vh)
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

// Hashes fills dst (grown if needed) with Tuple.Hash64 of every row, one
// column stripe at a time. It returns the filled slice.
func (b *ColBatch) Hashes(seed maphash.Seed, dst []uint64) []uint64 {
	if cap(dst) < b.n {
		dst = make([]uint64, b.n)
	}
	dst = dst[:b.n]
	for i := range dst {
		dst[i] = HashFoldInit
	}
	for ci := range b.cols {
		b.cols[ci].HashFoldInto(seed, dst)
	}
	return dst
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
// NextCol plus the row view. Prefetch hands the row views along, which alias the column batch rather than re-boxing
// it.
type ColCursor interface {
	Cursor
	NextCol() (*ColBatch, error)
}

// colBatchCursor streams prebuilt column batches.
type colBatchCursor struct {
	schema  *Schema
	batches []*ColBatch
	at      int
}

// NewColBatchCursor returns a cursor over a sequence of column batches.
// Empty batches are skipped (the Cursor contract yields non-empty batches
// only).
func NewColBatchCursor(schema *Schema, batches []*ColBatch) ColCursor {
	return &colBatchCursor{schema: schema, batches: batches}
}

func (c *colBatchCursor) Schema() *Schema { return c.schema }

func (c *colBatchCursor) NextCol() (*ColBatch, error) {
	for c.at < len(c.batches) {
		b := c.batches[c.at]
		c.at++
		if b.Len() > 0 {
			return b, nil
		}
	}
	return nil, io.EOF
}

func (c *colBatchCursor) Next() ([]Tuple, error) {
	b, err := c.NextCol()
	if err != nil {
		return nil, err
	}
	return b.Rows(), nil
}

func (c *colBatchCursor) Close() error {
	c.at = len(c.batches)
	return nil
}

// colSliceCursor cuts an in-memory tuple slice into column batches.
type colSliceCursor struct {
	schema *Schema
	tuples []Tuple
	at     int
	batch  int
}

// NewColSliceCursor returns a columnar cursor over tuples with the given
// batch size (values < 1 mean DefaultBatchSize): each NextCol converts the
// next batch-sized run of rows to a fresh ColBatch.
func NewColSliceCursor(schema *Schema, tuples []Tuple, batch int) ColCursor {
	if batch < 1 {
		batch = DefaultBatchSize
	}
	return &colSliceCursor{schema: schema, tuples: tuples, batch: batch}
}

func (c *colSliceCursor) Schema() *Schema { return c.schema }

func (c *colSliceCursor) NextCol() (*ColBatch, error) {
	if c.at >= len(c.tuples) {
		return nil, io.EOF
	}
	end := c.at + c.batch
	if end > len(c.tuples) {
		end = len(c.tuples)
	}
	b := FromTuples(c.schema, c.tuples[c.at:end])
	c.at = end
	return b, nil
}

func (c *colSliceCursor) Next() ([]Tuple, error) {
	b, err := c.NextCol()
	if err != nil {
		return nil, err
	}
	return b.Rows(), nil
}

func (c *colSliceCursor) Close() error {
	c.at = len(c.tuples)
	return nil
}
