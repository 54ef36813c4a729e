package wire

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file tests the binary frames the wire carries (rel/codec.go and
// core/codec.go) three ways: direct encode/decode round trips over
// adversarially mixed values (NaN, -0, empty strings, nulls, >64-source tag
// sets), answers over a real connection — unary and streamed — checked
// against the in-process answer, and a fuzzer (FuzzFrameRoundTrip) that
// both derives random batches from the fuzz input and throws the raw input
// at the decoders, which must fail cleanly rather than panic or
// over-allocate.

// renderCell renders one tagged cell registry-independently (kind, datum,
// tag names) so answers decoded into different client registries compare.
func renderCell(c core.Cell, reg *sourceset.Registry) string {
	return fmt.Sprintf("%d:%s %s %s", c.D.Kind(), c.D, c.O.Format(reg), c.I.Format(reg))
}

func renderTagged(p *core.Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = renderCell(c, p.Reg)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out
}

func renderPlain(r *rel.Relation) []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = fmt.Sprintf("%d:%s", v.Kind(), v)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out
}

func sameLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mixedValue draws one value covering every kind and the special data
// (NaN, -0, empty and non-ASCII strings, nulls).
func mixedValue(rng *rand.Rand) rel.Value {
	switch rng.Intn(10) {
	case 0:
		return rel.Null()
	case 1:
		return rel.String("")
	case 2:
		return rel.String("héllo\x00wörld")
	case 3:
		return rel.String(fmt.Sprintf("s%d", rng.Intn(5)))
	case 4:
		return rel.Int(int64(rng.Intn(7)) - 3)
	case 5:
		return rel.Int(math.MinInt64)
	case 6:
		return rel.Float(math.NaN())
	case 7:
		return rel.Float(math.Copysign(0, -1))
	case 8:
		return rel.Bool(rng.Intn(2) == 0)
	default:
		return rel.Float(rng.Float64()*100 - 50)
	}
}

// mixedSet draws a tag set from a pool that includes the empty set and a
// >64-ID overflow set.
func mixedSet(rng *rand.Rand, reg *sourceset.Registry) sourceset.Set {
	switch rng.Intn(5) {
	case 0:
		return sourceset.Empty()
	case 1:
		big := sourceset.Empty()
		for i := 0; i < 70; i++ {
			big = big.With(reg.Intern(fmt.Sprintf("ov%02d", i)))
		}
		return big
	default:
		s := sourceset.Empty()
		for i := 0; i <= rng.Intn(3); i++ {
			s = s.With(reg.Intern(fmt.Sprintf("db%d", rng.Intn(4))))
		}
		return s
	}
}

func randomTaggedBatch(rng *rand.Rand, reg *sourceset.Registry, ncols, nrows int) *core.ColBatch {
	attrs := make([]core.Attr, ncols)
	for i := range attrs {
		attrs[i] = core.Attr{Name: fmt.Sprintf("A%d", i)}
	}
	b := core.NewColBatch("T", reg, attrs)
	row := make(core.Tuple, ncols)
	for r := 0; r < nrows; r++ {
		for c := range row {
			row[c] = core.Cell{D: mixedValue(rng), O: mixedSet(rng, reg), I: mixedSet(rng, reg)}
		}
		b.AppendTuple(row)
	}
	return b
}

// TestRelFrameRoundTrip: plain columnar frames decode back to the same
// values, kinds and -0 bits, across random schemas and batch sizes.
func TestRelFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		ncols := 1 + rng.Intn(4)
		nrows := rng.Intn(12)
		names := make([]string, ncols)
		for i := range names {
			names[i] = fmt.Sprintf("A%d", i)
		}
		schema := rel.SchemaOf(names...)
		b := rel.NewColBatch(schema)
		row := make(rel.Tuple, ncols)
		for r := 0; r < nrows; r++ {
			for c := range row {
				row[c] = mixedValue(rng)
			}
			b.AppendTuple(row)
		}
		payload := rel.AppendFrame(nil, b)
		got, err := rel.DecodeFrame(payload, schema)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if got.Len() != nrows {
			t.Fatalf("iter %d: decoded %d rows, want %d", iter, got.Len(), nrows)
		}
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				w, g := b.Value(r, c), got.Value(r, c)
				if w.Kind() != g.Kind() || !w.Identical(g) {
					t.Fatalf("iter %d: cell (%d,%d): got %v, want %v", iter, r, c, g, w)
				}
				if w.Kind() == rel.KindFloat {
					if math.Float64bits(w.FloatVal()) != math.Float64bits(g.FloatVal()) {
						t.Fatalf("iter %d: cell (%d,%d): float bits changed", iter, r, c)
					}
				}
			}
		}
		// Re-encoding the decoded batch reproduces the payload byte for byte.
		again := rel.AppendFrame(nil, got)
		if string(again) != string(payload) {
			t.Fatalf("iter %d: re-encode diverged", iter)
		}
	}
}

// TestCoreFrameRoundTrip: tagged frames decode into a fresh registry with
// identical cells — data, origin and intermediate sets, >64-source overflow
// sets included.
func TestCoreFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 150; iter++ {
		reg := sourceset.NewRegistry()
		b := randomTaggedBatch(rng, reg, 1+rng.Intn(3), rng.Intn(10))
		payload := core.AppendFrame(nil, b)
		fresh := sourceset.NewRegistry()
		got, err := core.DecodeFrame(payload, b.Name, b.Attrs, fresh)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		want := renderTagged(b.Relation())
		have := renderTagged(got.Relation())
		if !sameLines(want, have) {
			t.Fatalf("iter %d: decoded batch diverged:\ngot:\n%s\nwant:\n%s",
				iter, strings.Join(have, "\n"), strings.Join(want, "\n"))
		}
	}
}

// fixedMediator serves one prebuilt tagged relation — enough mediator to
// exercise the "query" answer and the "queryopen" framing.
type fixedMediator struct {
	p *core.Relation
}

func (m *fixedMediator) Federation() string { return "fixed" }
func (m *fixedMediator) OpenSession(SessionOptions) (SessionInfo, error) {
	return SessionInfo{ID: "s1", Federation: "fixed"}, nil
}
func (m *fixedMediator) CloseSession(string) error { return nil }
func (m *fixedMediator) Query(string, string, bool) (*MediatedAnswer, error) {
	return &MediatedAnswer{Relation: m.p}, nil
}
func (m *fixedMediator) OpenQuery(string, string, bool) (*MediatedStream, error) {
	return &MediatedStream{
		Cursor: core.NewRelationCursor(m.p, 3),
		Diag:   func() federation.Report { return federation.Report{} },
	}, nil
}

// TestTaggedAnswerMatchesSource: the unary "query" answer and the
// "queryopen" stream both deliver exactly the mediator's tagged answer —
// name, attributes, every datum and both tag sets — for a random answer, an
// empty one, and one whose source names the client's registry has never
// interned. The client's first registry IDs are taken by other names
// beforehand, so only the names each frame carries can map tags back.
func TestTaggedAnswerMatchesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := randomTaggedBatch(rng, sourceset.NewRegistry(), 3, 17).Relation()
	random.Name = "ANS"
	empty := core.NewRelation("EMPTY", sourceset.NewRegistry(), core.Attr{Name: "A"}, core.Attr{Name: "B"})
	freshReg := sourceset.NewRegistry()
	fresh := core.NewRelation("FRESH", freshReg, core.Attr{Name: "K"})
	for i := 0; i < 3; i++ {
		o := sourceset.Of(freshReg.Intern(fmt.Sprintf("fresh%d", i)))
		fresh.Tuples = append(fresh.Tuples, core.Tuple{{D: rel.Int(int64(i)), O: o, I: o.With(freshReg.Intern("freshI"))}})
	}

	for _, tc := range []struct {
		name string
		p    *core.Relation
	}{{"random", random}, {"empty", empty}, {"unseen-sources", fresh}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewMediatorServer(&fixedMediator{p: tc.p})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 4; i++ {
				c.Reg.Intern(fmt.Sprintf("client-only%d", i))
			}

			ans, err := c.Query("", "q", false)
			if err != nil {
				t.Fatal(err)
			}
			checkTaggedAnswer(t, "query", ans.Relation, tc.p)

			cur, _, err := c.OpenQuery("", "q", false)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := core.Drain(cur)
			if err != nil {
				t.Fatal(err)
			}
			checkTaggedAnswer(t, "queryopen", streamed, tc.p)
		})
	}
}

// checkTaggedAnswer compares a decoded answer with the relation the
// mediator served, cell for cell and tag for tag.
func checkTaggedAnswer(t *testing.T, path string, got, want *core.Relation) {
	t.Helper()
	if got.Name != want.Name || fmt.Sprint(got.Attrs) != fmt.Sprint(want.Attrs) {
		t.Fatalf("%s: answer heads %s%v, want %s%v", path, got.Name, got.Attrs, want.Name, want.Attrs)
	}
	if g, w := renderTagged(got), renderTagged(want); !sameLines(g, w) {
		t.Fatalf("%s: answer diverged from the source relation:\ngot:\n%s\nwant:\n%s",
			path, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}

// TestPlainStreamMatchesLocal: the LQP-side "open" stream delivers, row for
// row, what the in-process lqp.Local answers, and its cursor has the
// columnar capability.
func TestPlainStreamMatchesLocal(t *testing.T) {
	_, c := startStreamServer(t, 700)

	binCur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	cc, ok := binCur.(rel.ColCursor)
	if !ok {
		t.Fatal("binary stream cursor is not a rel.ColCursor")
	}
	var colRows []rel.Tuple
	for {
		cb, err := cc.NextCol()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		colRows = append(colRows, cb.Rows()...)
	}
	binCur.Close()

	want, err := drainOpen(lqp.NewLocal(streamDB(700)).Open(lqp.Retrieve("BIG")))
	if err != nil {
		t.Fatal(err)
	}
	if len(colRows) != len(want.Tuples) {
		t.Fatalf("stream delivered %d rows, in-process answer has %d", len(colRows), len(want.Tuples))
	}
	for i, tup := range want.Tuples {
		if !colRows[i].Identical(tup) {
			t.Fatalf("row %d: stream %v, in-process %v", i, colRows[i], tup)
		}
	}
}
