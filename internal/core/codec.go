package core

// This file implements the tagged half of the binary columnar codec: a plain
// rel frame (see rel/codec.go) extended with the source-tag machinery a
// core.ColBatch carries. The wire protocol sends the mediator's answers as
// these frames, so a result keeps its provenance tags across the hop.
//
//	+-------+--------+--------+---------+--------+---------------- ... ----+
//	| 0xC2  | ncols  | nrows  | sources | sets   | tagged col 0 | ...      |
//	+-------+--------+--------+---------+--------+---------------- ... ----+
//
// A tagged column is a plain column followed by two tag-index vectors, one
// uvarint per row each (origin then intermediate), indexing the frame's set
// directory. The directories come once per frame:
//
//	sources   uvarint count, then per name: uvarint len + bytes
//	sets      uvarint count (>= 1; set 0 is the empty set), then per set:
//	          uvarint member count + one uvarint source index per member
//
// The frame carries its own source-name directory, so a receiver re-interns
// names into its registry instead of trusting registry IDs across processes.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// FrameMagicTagged opens a source-tagged columnar frame (a core.ColBatch).
const FrameMagicTagged = 0xC2

// AppendFrame appends one tagged columnar frame to buf and returns it.
func AppendFrame(buf []byte, b *ColBatch) []byte {
	d := b.Degree()
	buf = append(buf, FrameMagicTagged)
	buf = binary.AppendUvarint(buf, uint64(d))
	buf = binary.AppendUvarint(buf, uint64(b.Len()))

	// Source-name directory: every ID referenced by the set dictionary, in
	// first-reference order.
	index := make(map[sourceset.ID]uint64)
	var names []string
	for _, s := range b.Sets {
		for _, id := range s.IDs() {
			if _, ok := index[id]; !ok {
				index[id] = uint64(len(names))
				names = append(names, b.Reg.Name(id))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}

	// Set directory: the batch's tag dictionary, each set as source indexes.
	buf = binary.AppendUvarint(buf, uint64(len(b.Sets)))
	for _, s := range b.Sets {
		ids := s.IDs()
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, index[id])
		}
	}

	for ci := 0; ci < d; ci++ {
		buf = rel.AppendColumnData(buf, &b.Data[ci])
		for _, ix := range b.OTag[ci] {
			buf = binary.AppendUvarint(buf, uint64(ix))
		}
		for _, ix := range b.ITag[ci] {
			buf = binary.AppendUvarint(buf, uint64(ix))
		}
	}
	return buf
}

// decodeTagVector decodes one per-row tag-index vector, validating every
// index against the set directory.
func decodeTagVector(r *rel.FrameReader, n, nsets int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		v, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(nsets) {
			return nil, fmt.Errorf("core: frame tag index %d outside set directory of %d", v, nsets)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

// DecodeFrame decodes one tagged columnar frame into the receiver's
// attribute space, re-interning the frame's source names into reg.
func DecodeFrame(payload []byte, name string, attrs []Attr, reg *sourceset.Registry) (*ColBatch, error) {
	r := rel.NewFrameReader(payload)
	magic, err := r.U8()
	if err != nil {
		return nil, err
	}
	if magic != FrameMagicTagged {
		return nil, fmt.Errorf("core: frame magic %#x, want %#x", magic, FrameMagicTagged)
	}
	// As in rel.DecodeFrame, ncols is bounded by the attribute list, not by
	// the payload size.
	ncols, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ncols != uint64(len(attrs)) {
		return nil, fmt.Errorf("core: frame has %d columns for %d attributes", ncols, len(attrs))
	}
	nrows, err := r.Length(r.Remaining())
	if err != nil {
		return nil, err
	}

	// Source directory: each name costs at least its length prefix. The
	// names are interned into reg only once the whole frame has decoded, so
	// a corrupt frame leaves a long-lived registry untouched.
	nsources, err := r.Length(r.Remaining())
	if err != nil {
		return nil, err
	}
	names := make([][]byte, nsources)
	for i := range names {
		l, err := r.Length(r.Remaining())
		if err != nil {
			return nil, err
		}
		if names[i], err = r.Take(l); err != nil {
			return nil, err
		}
	}

	// Set directory: each set costs at least its member-count varint, and
	// set 0 is the empty set. Members stay directory indexes until interning.
	nsets, err := r.Length(r.Remaining())
	if err != nil {
		return nil, err
	}
	if nsets < 1 {
		return nil, fmt.Errorf("core: frame has an empty set directory")
	}
	members := make([]uint64, 0, nsets) // every set's source indexes, in order
	ends := make([]int, nsets)          // set i is members[ends[i-1]:ends[i]]
	for i := range ends {
		nm, err := r.Length(r.Remaining())
		if err != nil {
			return nil, err
		}
		if i == 0 && nm != 0 {
			return nil, fmt.Errorf("core: frame's set 0 has %d members, want the empty set", nm)
		}
		for m := 0; m < nm; m++ {
			si, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if si >= uint64(len(names)) {
				return nil, fmt.Errorf("core: frame source index %d outside directory of %d", si, len(names))
			}
			members = append(members, si)
		}
		ends[i] = len(members)
	}

	data := make([]rel.Column, ncols)
	otag := make([][]uint32, ncols)
	itag := make([][]uint32, ncols)
	for ci := range data {
		if data[ci], err = r.DecodeColumn(nrows); err != nil {
			return nil, fmt.Errorf("core: column %d: %w", ci, err)
		}
		if otag[ci], err = decodeTagVector(r, nrows, nsets); err != nil {
			return nil, fmt.Errorf("core: column %d origin tags: %w", ci, err)
		}
		if itag[ci], err = decodeTagVector(r, nrows, nsets); err != nil {
			return nil, fmt.Errorf("core: column %d intermediate tags: %w", ci, err)
		}
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("core: frame has %d trailing bytes", r.Remaining())
	}

	ids := make([]sourceset.ID, len(names))
	for i, nb := range names {
		ids[i] = reg.Intern(string(nb))
	}
	sets := make([]sourceset.Set, nsets)
	start := 0
	for i, end := range ends {
		for _, si := range members[start:end] {
			sets[i] = sets[i].With(ids[si])
		}
		start = end
	}
	return BuildColBatch(name, reg, attrs, data, otag, itag, sets, nrows)
}
