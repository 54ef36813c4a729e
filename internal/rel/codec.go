package rel

// This file implements the plain (untagged) half of the binary columnar
// codec: the column-major byte layout shared by the wire protocol's
// "openplan" stream frames (internal/wire) and the write-ahead segment
// log's insert payloads (internal/store). A frame is
//
//	+-------+--------+--------+----------------- ... -----+
//	| 0xC1  | ncols  | nrows  | column 0 | column 1 | ... |
//	+-------+--------+--------+----------------- ... -----+
//
// where every integer is an unsigned varint and every column is
//
//	+------------------+-------------------+---------------+-----------+
//	| kinds (nrows B)  | packed payloads   | string lens   | blob      |
//	+------------------+-------------------+---------------+-----------+
//
//	kinds     one Kind byte per row
//	payloads  row order: Int/Float 8 B little-endian, Bool 1 B, else none
//	lens      one uvarint per string row (byte length)
//	blob      the string bytes, concatenated in row order
//
// Decoding is O(columns) allocations, not O(rows x columns), and every
// length prefix is validated against the bytes actually remaining before
// anything is allocated, so a corrupt or hostile payload fails with an error
// instead of an over-allocation or a panic. The tagged variant (0xC2) lives
// in internal/core, which layers source/set directories and per-row tag
// vectors on top of these columns via FrameReader.

import (
	"encoding/binary"
	"fmt"
)

// FrameMagicPlain opens an untagged columnar frame (a ColBatch).
const FrameMagicPlain = 0xC1

// AppendColumnData appends one plain column in frame order: kinds, packed
// payloads, string lengths, string blob.
func AppendColumnData(buf []byte, c *Column) []byte {
	for _, k := range c.Kinds {
		buf = append(buf, byte(k))
	}
	for i, k := range c.Kinds {
		switch k {
		case KindInt, KindFloat:
			var w uint64
			if c.Nums != nil {
				w = c.Nums[i]
			}
			buf = binary.LittleEndian.AppendUint64(buf, w)
		case KindBool:
			var b byte
			if c.Nums != nil && c.Nums[i] != 0 {
				b = 1
			}
			buf = append(buf, b)
		}
	}
	for i, k := range c.Kinds {
		if k == KindString {
			var s string
			if c.Strs != nil {
				s = c.Strs[i]
			}
			buf = binary.AppendUvarint(buf, uint64(len(s)))
		}
	}
	for i, k := range c.Kinds {
		if k == KindString && c.Strs != nil {
			buf = append(buf, c.Strs[i]...)
		}
	}
	return buf
}

// AppendFrame appends one plain columnar frame to buf and returns it.
func AppendFrame(buf []byte, b *ColBatch) []byte {
	d := b.Schema().Len()
	buf = append(buf, FrameMagicPlain)
	buf = binary.AppendUvarint(buf, uint64(d))
	buf = binary.AppendUvarint(buf, uint64(b.Len()))
	for ci := 0; ci < d; ci++ {
		buf = AppendColumnData(buf, b.Col(ci))
	}
	return buf
}

// FrameReader walks a frame payload with explicit bounds checks; every read
// that would pass the end fails with an error instead of panicking.
type FrameReader struct {
	b  []byte
	at int
}

// NewFrameReader returns a reader over payload.
func NewFrameReader(payload []byte) *FrameReader { return &FrameReader{b: payload} }

// Remaining reports the bytes not yet consumed.
func (r *FrameReader) Remaining() int { return len(r.b) - r.at }

// U8 reads one byte.
func (r *FrameReader) U8() (byte, error) {
	if r.at >= len(r.b) {
		return 0, fmt.Errorf("rel: frame truncated at byte %d", r.at)
	}
	v := r.b[r.at]
	r.at++
	return v, nil
}

// Take consumes the next n bytes, returned as a capacity-capped subslice.
func (r *FrameReader) Take(n int) ([]byte, error) {
	if n < 0 || n > r.Remaining() {
		return nil, fmt.Errorf("rel: frame claims %d bytes with %d remaining", n, r.Remaining())
	}
	b := r.b[r.at : r.at+n : r.at+n]
	r.at += n
	return b, nil
}

// Uvarint reads one unsigned varint.
func (r *FrameReader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.at:])
	if n <= 0 {
		return 0, fmt.Errorf("rel: frame has invalid varint at byte %d", r.at)
	}
	r.at += n
	return v, nil
}

// Length reads a uvarint that sizes a later read or allocation, rejecting
// values beyond limit — the cap that keeps a hostile length prefix from
// driving a huge allocation before the (absent) bytes are ever read.
func (r *FrameReader) Length(limit int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("rel: frame length %d exceeds %d available bytes", v, limit)
	}
	return int(v), nil
}

// DecodeColumn decodes one plain column of n rows.
func (r *FrameReader) DecodeColumn(n int) (Column, error) {
	var col Column
	kb, err := r.Take(n)
	if err != nil {
		return col, err
	}
	kinds := make([]Kind, n)
	payload, strs := 0, 0
	for i, b := range kb {
		k := Kind(b)
		kinds[i] = k
		switch k {
		case KindNull:
		case KindInt, KindFloat:
			payload += 8
		case KindBool:
			payload++
		case KindString:
			strs++
		default:
			return col, fmt.Errorf("rel: frame has invalid kind tag %d", b)
		}
	}
	col.Kinds = kinds
	for i, k := range kinds {
		if k == KindNull {
			col.SetNull(i)
		}
	}
	if payload > 0 {
		pb, err := r.Take(payload)
		if err != nil {
			return col, err
		}
		col.Nums = make([]uint64, n)
		at := 0
		for i, k := range kinds {
			switch k {
			case KindInt, KindFloat:
				col.Nums[i] = binary.LittleEndian.Uint64(pb[at:])
				at += 8
			case KindBool:
				if pb[at] > 1 {
					return col, fmt.Errorf("rel: frame has invalid bool payload %d", pb[at])
				}
				col.Nums[i] = uint64(pb[at])
				at++
			}
		}
	}
	if strs > 0 {
		// Lengths precede the blob, so the running total is always bounded by
		// the bytes still unread; one string(...) conversion per column, rows
		// sliced out of it zero-copy.
		lens := make([]int, 0, strs)
		total := 0
		for _, k := range kinds {
			if k != KindString {
				continue
			}
			l, err := r.Length(r.Remaining())
			if err != nil {
				return col, err
			}
			total += l
			if total > r.Remaining() {
				return col, fmt.Errorf("rel: frame string blob of %d bytes exceeds %d remaining", total, r.Remaining())
			}
			lens = append(lens, l)
		}
		blob, err := r.Take(total)
		if err != nil {
			return col, err
		}
		bs := string(blob)
		col.Strs = make([]string, n)
		at, li := 0, 0
		for i, k := range kinds {
			if k == KindString {
				col.Strs[i] = bs[at : at+lens[li]]
				at += lens[li]
				li++
			}
		}
	}
	return col, nil
}

// DecodeFrame decodes one plain columnar frame against schema.
func DecodeFrame(payload []byte, schema *Schema) (*ColBatch, error) {
	r := NewFrameReader(payload)
	magic, err := r.U8()
	if err != nil {
		return nil, err
	}
	if magic != FrameMagicPlain {
		return nil, fmt.Errorf("rel: frame magic %#x, want %#x", magic, FrameMagicPlain)
	}
	// ncols needs no byte-bound cap (a zero-row frame is smaller than its
	// column count): it must equal the schema width, which bounds it.
	ncols, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ncols != uint64(schema.Len()) {
		return nil, fmt.Errorf("rel: frame has %d columns for schema %s", ncols, schema)
	}
	// Every row costs at least one kind byte per column, and zero-width
	// frames carry no rows; either way nrows is bounded by the payload size.
	nrows, err := r.Length(r.Remaining())
	if err != nil {
		return nil, err
	}
	cols := make([]Column, ncols)
	for ci := range cols {
		if cols[ci], err = r.DecodeColumn(nrows); err != nil {
			return nil, fmt.Errorf("rel: column %d: %w", ci, err)
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("rel: frame has %d trailing bytes", r.Remaining())
	}
	return BuildColBatch(schema, cols, nrows)
}
