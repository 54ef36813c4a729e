package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// tagFrame hand-assembles a one-column, one-row tagged frame whose source
// directory names two sources, with the given set directory (members as
// directory indexes) and encoded column section.
func tagFrame(sets [][]uint64, col ...byte) []byte {
	buf := []byte{FrameMagicTagged}
	buf = binary.AppendUvarint(buf, 1) // ncols
	buf = binary.AppendUvarint(buf, 1) // nrows
	buf = binary.AppendUvarint(buf, 2)
	for _, name := range []string{"NEW1", "NEW2"} {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sets)))
	for _, s := range sets {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		for _, m := range s {
			buf = binary.AppendUvarint(buf, m)
		}
	}
	return append(buf, col...)
}

// TestDecodeFrameCorruptLeavesRegistry: a frame that fails to decode must
// not intern its source names, because the receiver's registry outlives the
// frame (a client's registry lives as long as its connection).
func TestDecodeFrameCorruptLeavesRegistry(t *testing.T) {
	null := byte(rel.KindNull)
	good := [][]uint64{{}, {0, 1}}
	corrupt := map[string][]byte{
		"source index past directory": tagFrame([][]uint64{{}, {0, 5}}, null, 1, 0),
		"set 0 not empty":             tagFrame([][]uint64{{1}, {0}}, null, 1, 0),
		"torn set directory":          tagFrame(good)[:17],
		"invalid kind tag":            tagFrame(good, 0xEE, 1, 0),
		"tag index past directory":    tagFrame(good, null, 9, 0),
		"torn tag vector":             tagFrame(good, null, 1),
		"trailing bytes":              tagFrame(good, null, 1, 0, 0),
	}
	attrs := []Attr{{Name: "A"}}
	reg := sourceset.NewRegistry()
	reg.Intern("OLD")
	for name, payload := range corrupt {
		if _, err := DecodeFrame(payload, "F", attrs, reg); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if reg.Len() != 1 {
			t.Fatalf("%s: registry grew to %d names on a frame that failed to decode", name, reg.Len())
		}
	}
	b, err := DecodeFrame(tagFrame(good, null, 1, 0), "F", attrs, reg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 || b.Rows()[0][0].O.Len() != 2 {
		t.Fatalf("valid frame: registry has %d names, origin %v", reg.Len(), b.Rows()[0][0].O)
	}
}
