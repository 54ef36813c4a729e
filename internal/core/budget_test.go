package core

import (
	"errors"
	"os"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/identity"
	"repro/internal/rel"
)

// The memory-budget suite: a budget the build state fits under changes no
// answer, cell for cell against the Ref* operators; a budget it does not
// fit under fails the operator with ErrOverBudget, closes its operands and
// counts the refusal; and no budget charges nothing.

// budgetAlgebra returns an algebra bounded by budget bytes per operator.
func budgetAlgebra(res identity.Resolver, budget int64) (*Algebra, *Memory) {
	alg := NewAlgebra(res)
	mem := &Memory{Budget: budget}
	alg.SetMemory(mem)
	return alg, mem
}

// roomyBudget is far above any build state the property generators make.
const roomyBudget = 1 << 30

func wantNoRefusal(t *testing.T, mem *Memory) {
	t.Helper()
	if n := mem.Refused.Load(); n != 0 {
		t.Fatalf("%d builds refused under a budget they fit in", n)
	}
}

func TestPropertyBudgetedProjectMatchesReference(t *testing.T) {
	g, reg := newWideGen(90)
	ref := NewAlgebra(nil)
	alg, mem := budgetAlgebra(nil, roomyBudget)
	for i := 0; i < 150; i++ {
		p := g.wideRelation(reg, "A", "B", "C")
		want, err := ref.RefProject(p, []string{"C", "A"})
		if err != nil {
			t.Fatal(err)
		}
		got := mustDrain(alg.StreamProject(cursorOver(p), []string{"C", "A"}))
		wantSameRendered(t, "budgeted project", i, got, want)
	}
	wantNoRefusal(t, mem)
}

func TestPropertyBudgetedUnionMatchesReference(t *testing.T) {
	g, reg := newWideGen(91)
	ref := NewAlgebra(nil)
	alg, mem := budgetAlgebra(nil, roomyBudget)
	for i := 0; i < 150; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		want, err := ref.RefUnion(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		got := mustDrain(alg.StreamUnion(cursorOver(p1), cursorOver(p2)))
		wantSameRendered(t, "budgeted union", i, got, want)
	}
	wantNoRefusal(t, mem)
}

func TestPropertyBudgetedDifferenceMatchesReference(t *testing.T) {
	g, reg := newWideGen(92)
	ref := NewAlgebra(nil)
	alg, mem := budgetAlgebra(nil, roomyBudget)
	for i := 0; i < 150; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		want, err := ref.RefDifference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		got := mustDrain(alg.StreamDifference(cursorOver(p1), cursorOver(p2)))
		wantSameRendered(t, "budgeted difference", i, got, want)
	}
	wantNoRefusal(t, mem)
}

func TestPropertyBudgetedJoinMatchesReference(t *testing.T) {
	resolvers := []identity.Resolver{
		identity.Exact{},
		identity.CaseFold{},
		identity.NewSynonyms(identity.CaseFold{},
			[]rel.Value{rel.String("a"), rel.String("b")},
			[]rel.Value{rel.String("c"), rel.String("d")},
		),
	}
	for ri, res := range resolvers {
		g, reg := newWideGen(int64(93 + ri))
		// The resolver's interned-ID table is per-algebra state, so the
		// budgeted and reference algebras each get their own instance.
		ref := NewAlgebra(res)
		alg, mem := budgetAlgebra(res, roomyBudget)
		for i := 0; i < 100; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			want, err := ref.RefJoin(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			got := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
			wantSameRendered(t, "budgeted join", i, got, want)
		}
		wantNoRefusal(t, mem)
	}
}

// closeCounter wraps a cursor and counts Close calls.
type closeCounter struct {
	Cursor
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.Cursor.Close()
}

// budgetOps builds each budgeted operator over its operands; Project
// takes only the first.
var budgetOps = []struct {
	name  string
	attrs [2][]string
	open  func(a *Algebra, l, r Cursor) (Cursor, error)
}{
	{"project", [2][]string{{"A", "B"}, {"A", "B"}}, func(a *Algebra, l, _ Cursor) (Cursor, error) {
		return a.StreamProject(l, []string{"B"})
	}},
	{"union", [2][]string{{"A", "B"}, {"A", "B"}}, func(a *Algebra, l, r Cursor) (Cursor, error) {
		return a.StreamUnion(l, r)
	}},
	{"difference", [2][]string{{"A", "B"}, {"A", "B"}}, func(a *Algebra, l, r Cursor) (Cursor, error) {
		return a.StreamDifference(l, r)
	}},
	{"join", [2][]string{{"K/PK", "V"}, {"K2/PK", "W"}}, func(a *Algebra, l, r Cursor) (Cursor, error) {
		return a.StreamJoin(l, "K", rel.ThetaEQ, r, "K2")
	}},
}

// TestOverBudgetRefuses: under a 1-byte budget every budgeted operator's
// first resident row refuses. The error is ErrOverBudget naming the
// operator and the budget, every operand is closed exactly once (also
// after the consumer's own Close), the refusal is counted, and nothing is
// written to the temp dir.
func TestOverBudgetRefuses(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	g, reg := newWideGen(96)
	for _, op := range budgetOps {
		t.Run(op.name, func(t *testing.T) {
			alg, mem := budgetAlgebra(identity.CaseFold{}, 1)
			wantR := 1 // operand closes
			if op.name == "project" {
				wantR = 0
			}
			for i := 0; i < 50; i++ {
				p1, p2 := g.wideRelation(reg, op.attrs[0]...), g.wideRelation(reg, op.attrs[1]...)
				if len(p1.Tuples) == 0 || len(p2.Tuples) == 0 {
					continue
				}
				l, r := &closeCounter{Cursor: cursorOver(p1)}, &closeCounter{Cursor: cursorOver(p2)}
				before := mem.Refused.Load()
				c, err := op.open(alg, l, r)
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.Next() // the first Next runs the build
				if !errors.Is(err, ErrOverBudget) {
					t.Fatalf("iteration %d: got %v, want ErrOverBudget", i, err)
				}
				if msg := err.Error(); !strings.Contains(msg, op.name) || !strings.Contains(msg, "1 bytes") {
					t.Fatalf("iteration %d: %q does not name the operator and the budget", i, msg)
				}
				if l.closes != 1 || r.closes != wantR {
					t.Fatalf("iteration %d: refused build closed operands %d and %d times, want 1 and %d", i, l.closes, r.closes, wantR)
				}
				c.Close()
				if l.closes != 1 || r.closes != wantR {
					t.Fatalf("iteration %d: Close after refusal closed operands %d and %d times, want 1 and %d", i, l.closes, r.closes, wantR)
				}
				if got := mem.Refused.Load() - before; got != 1 {
					t.Fatalf("iteration %d: Refused rose by %d, want 1", i, got)
				}
			}
		})
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refusing operators left %d files in the temp dir", len(entries))
	}
}

// TestMemoryZeroBudgetDisables: a Memory without a positive budget never
// refuses and never starts a charge, and the answers stay the reference's.
func TestMemoryZeroBudgetDisables(t *testing.T) {
	g, reg := newWideGen(99)
	ref := NewAlgebra(identity.CaseFold{})
	for _, b := range []int64{0, -1} {
		alg, mem := budgetAlgebra(identity.CaseFold{}, b)
		if alg.budget("join") != nil {
			t.Fatalf("budget %d starts a per-row charge", b)
		}
		for i := 0; i < 50; i++ {
			p1, p2 := g.wideRelation(reg, "A", "B"), g.wideRelation(reg, "A", "B")
			want, err := ref.RefUnion(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "zero-budget union", i, mustDrain(alg.StreamUnion(cursorOver(p1), cursorOver(p2))), want)
			if want, err = ref.RefDifference(p1, p2); err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "zero-budget difference", i, mustDrain(alg.StreamDifference(cursorOver(p1), cursorOver(p2))), want)
			if want, err = ref.RefJoin(p1, "A", rel.ThetaEQ, p2, "A"); err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "zero-budget join", i, mustDrain(alg.StreamJoin(cursorOver(p1), "A", rel.ThetaEQ, cursorOver(p2), "A")), want)
			if want, err = ref.RefProject(p1, []string{"B"}); err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "zero-budget project", i, mustDrain(alg.StreamProject(cursorOver(p1), []string{"B"})), want)
		}
		if n := mem.Refused.Load(); n != 0 {
			t.Fatalf("budget %d refused %d builds", b, n)
		}
	}
}

// TestApproxTupleBytesChargesWholeCells: the budget charge covers every
// cell's full struct (value plus both tag-set headers) and the string bytes,
// so a budget is not overrun several times before the first refusal.
func TestApproxTupleBytesChargesWholeCells(t *testing.T) {
	tup := Tuple{{D: rel.Int(1)}, {D: rel.String("abcd")}, {D: rel.Null()}}
	got := approxTupleBytes(tup)
	want := int64(3*unsafe.Sizeof(Cell{})) + 4
	if got < want {
		t.Fatalf("3-cell tuple charged %d bytes, want at least %d (Cell is %d bytes)", got, want, unsafe.Sizeof(Cell{}))
	}
}
