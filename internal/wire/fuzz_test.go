package wire

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// byteDriver turns a fuzz input into bounded decisions: each draw consumes
// one byte (zero once exhausted), so every input maps deterministically to
// one batch shape and the fuzzer's mutations explore the shape space.
type byteDriver struct {
	b  []byte
	at int
}

func (d *byteDriver) next() byte {
	if d.at >= len(d.b) {
		return 0
	}
	v := d.b[d.at]
	d.at++
	return v
}

func (d *byteDriver) intn(n int) int { return int(d.next()) % n }

func (d *byteDriver) value() rel.Value {
	switch d.intn(8) {
	case 0:
		return rel.Null()
	case 1:
		return rel.String("")
	case 2:
		return rel.String(strings.Repeat("x", d.intn(9)))
	case 3:
		return rel.Int(int64(d.next()) - 128)
	case 4:
		return rel.Float(math.NaN())
	case 5:
		return rel.Float(math.Copysign(0, -1))
	case 6:
		return rel.Bool(d.next()%2 == 0)
	default:
		return rel.Float(float64(d.next()) / 3)
	}
}

func (d *byteDriver) set(reg *sourceset.Registry) sourceset.Set {
	switch d.intn(4) {
	case 0:
		return sourceset.Empty()
	case 1: // overflow set: 70 sources spill past the 64-bit fast path
		s := sourceset.Empty()
		for i := 0; i < 70; i++ {
			s = s.With(reg.Intern(string(rune('A'+i%26)) + string(rune('a'+i/26))))
		}
		return s
	default:
		s := sourceset.Empty()
		for i := 0; i <= d.intn(3); i++ {
			s = s.With(reg.Intern("fz" + string(rune('0'+d.intn(8)))))
		}
		return s
	}
}

// FuzzFrameRoundTrip drives the binary codec from both ends: the input
// derives a batch that must survive encode/decode unchanged (rel and core
// frames), and the raw input is also thrown at both decoders, which must
// return an error — never panic, and never allocate past the payload size.
func FuzzFrameRoundTrip(f *testing.F) {
	// Seed with valid encodings so the fuzzer starts inside the grammar.
	seedRel := rel.NewColBatch(rel.SchemaOf("A", "B"))
	seedRel.AppendTuple(rel.Tuple{rel.Int(1), rel.String("s")})
	seedRel.AppendTuple(rel.Tuple{rel.Null(), rel.Bool(true)})
	f.Add(rel.AppendFrame(nil, seedRel))
	reg := sourceset.NewRegistry()
	seedCore := core.NewColBatch("S", reg, []core.Attr{{Name: "A"}})
	seedCore.AppendTuple(core.Tuple{{D: rel.Float(1.5), O: sourceset.Of(reg.Intern("db")), I: sourceset.Empty()}})
	f.Add(core.AppendFrame(nil, seedCore))
	f.Add([]byte{rel.FrameMagicPlain, 1, 0})
	f.Add([]byte{core.FrameMagicTagged})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		// Leg 1: raw bytes at the decoders. Decode may succeed or fail, but
		// must never panic; a success must survive a further round trip.
		// (Byte-for-byte canonicality is NOT asserted — binary.Uvarint
		// accepts non-minimal varints the encoder never emits.)
		schema := rel.SchemaOf("A", "B")
		if b, err := rel.DecodeFrame(in, schema); err == nil {
			if _, err := rel.DecodeFrame(rel.AppendFrame(nil, b), schema); err != nil {
				t.Fatalf("rel frame re-round-trip: %v", err)
			}
		}
		attrs := []core.Attr{{Name: "A"}}
		if b, err := core.DecodeFrame(in, "F", attrs, sourceset.NewRegistry()); err == nil {
			if _, err := core.DecodeFrame(core.AppendFrame(nil, b), "F", attrs, sourceset.NewRegistry()); err != nil {
				t.Fatalf("core frame re-round-trip: %v", err)
			}
		}

		// Leg 2: derive a batch from the input; it must round-trip exactly.
		d := &byteDriver{b: in}
		ncols := 1 + d.intn(3)
		nrows := d.intn(12)
		names := make([]string, ncols)
		for i := range names {
			names[i] = "C" + string(rune('0'+i))
		}
		rb := rel.NewColBatch(rel.SchemaOf(names...))
		reg := sourceset.NewRegistry()
		cattrs := make([]core.Attr, ncols)
		for i := range cattrs {
			cattrs[i] = core.Attr{Name: names[i]}
		}
		cb := core.NewColBatch("F", reg, cattrs)
		rrow := make(rel.Tuple, ncols)
		crow := make(core.Tuple, ncols)
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				v := d.value()
				rrow[c] = v
				crow[c] = core.Cell{D: v, O: d.set(reg), I: d.set(reg)}
			}
			rb.AppendTuple(rrow)
			cb.AppendTuple(crow)
		}

		gotRel, err := rel.DecodeFrame(rel.AppendFrame(nil, rb), rb.Schema())
		if err != nil {
			t.Fatalf("rel round trip: %v", err)
		}
		if gotRel.Len() != nrows {
			t.Fatalf("rel round trip: %d rows, want %d", gotRel.Len(), nrows)
		}
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				if !rb.Value(r, c).Identical(gotRel.Value(r, c)) {
					t.Fatalf("rel cell (%d,%d) diverged: %v != %v", r, c, gotRel.Value(r, c), rb.Value(r, c))
				}
			}
		}

		gotCore, err := core.DecodeFrame(core.AppendFrame(nil, cb), "F", cattrs, sourceset.NewRegistry())
		if err != nil {
			t.Fatalf("core round trip: %v", err)
		}
		want, have := renderTagged(cb.Relation()), renderTagged(gotCore.Relation())
		if !sameLines(want, have) {
			t.Fatalf("core round trip diverged:\ngot:\n%s\nwant:\n%s",
				strings.Join(have, "\n"), strings.Join(want, "\n"))
		}
	})
}
