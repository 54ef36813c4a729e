package core

import (
	"os"
	"testing"
	"unsafe"

	"repro/internal/identity"
	"repro/internal/rel"
)

// The spill parity suite: every budgeted operator must agree cell for cell
// (data, origin tags, intermediate tags) with its unbudgeted materialized
// twin, under budgets tiny enough that partitions are provably forced to
// disk, and must leave no temp segments behind.

// spillAlgebra returns an algebra whose budget forces spilling on even the
// tiny property-test relations, spilling into a per-test temp dir.
func spillAlgebra(t *testing.T, res identity.Resolver, budget int64) (*Algebra, *Memory) {
	t.Helper()
	alg := NewAlgebra(res)
	mem := &Memory{Budget: budget, TempDir: t.TempDir(), Partitions: 4}
	alg.SetMemory(mem)
	return alg, mem
}

// wantSpilled asserts the budget actually engaged and the temp dir is clean.
func wantSpilled(t *testing.T, mem *Memory) {
	t.Helper()
	if mem.Spills.Load() == 0 {
		t.Fatal("budget never forced a spill")
	}
	if mem.Reloads.Load() == 0 {
		t.Fatal("no spilled partition was ever reloaded")
	}
	entries, err := os.ReadDir(mem.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d spill segments leaked in %s", len(entries), mem.TempDir)
	}
}

func TestPropertySpillProjectMatchesMaterialized(t *testing.T) {
	g, reg := newWideGen(90)
	ref := NewAlgebra(nil)
	for _, budget := range []int64{1, 512} {
		alg, mem := spillAlgebra(t, nil, budget)
		for i := 0; i < 150; i++ {
			p := g.wideRelation(reg, "A", "B", "C")
			mat, err := ref.Project(p, []string{"C", "A"})
			if err != nil {
				t.Fatal(err)
			}
			str := mustDrain(alg.StreamProject(cursorOver(p), []string{"C", "A"}))
			wantSameRendered(t, "spill project", i, str, mat)
		}
		if budget == 1 {
			wantSpilled(t, mem)
		}
	}
}

func TestPropertySpillUnionMatchesMaterialized(t *testing.T) {
	g, reg := newWideGen(91)
	ref := NewAlgebra(nil)
	alg, mem := spillAlgebra(t, nil, 1)
	for i := 0; i < 150; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		mat, err := ref.Union(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		str := mustDrain(alg.StreamUnion(cursorOver(p1), cursorOver(p2)))
		wantSameRendered(t, "spill union", i, str, mat)
	}
	wantSpilled(t, mem)
}

func TestPropertySpillDifferenceMatchesMaterialized(t *testing.T) {
	g, reg := newWideGen(92)
	ref := NewAlgebra(nil)
	alg, mem := spillAlgebra(t, nil, 1)
	for i := 0; i < 150; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		mat, err := ref.Difference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		str := mustDrain(alg.StreamDifference(cursorOver(p1), cursorOver(p2)))
		wantSameRendered(t, "spill difference", i, str, mat)
	}
	wantSpilled(t, mem)
}

func TestPropertySpillJoinMatchesEngines(t *testing.T) {
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
		alg, mem := spillAlgebra(t, res, 1)
		for i := 0; i < 100; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			mat, err := ref.Join(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			str := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
			wantSameRendered(t, "spill join", i, str, mat)
		}
		wantSpilled(t, mem)
	}
}

// TestSpillJoinModerateBudget forces only part of the build side to disk —
// the genuinely hybrid regime where resident and spilled partitions coexist.
func TestSpillJoinModerateBudget(t *testing.T) {
	g, reg := newWideGen(97)
	res := identity.CaseFold{}
	ref := NewAlgebra(res)
	alg, mem := spillAlgebra(t, res, 400)
	for i := 0; i < 150; i++ {
		p1 := g.wideRelation(reg, "K/PK", "V")
		p2 := g.wideRelation(reg, "K2/PK", "W")
		mat, err := ref.Join(p1, "K", rel.ThetaEQ, p2, "K2")
		if err != nil {
			t.Fatal(err)
		}
		str := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
		wantSameRendered(t, "hybrid join", i, str, mat)
	}
	wantSpilled(t, mem)
}

// TestSpillEarlyCloseCleansUp closes a spilling join mid-probe and asserts
// no temp segments survive.
func TestSpillEarlyCloseCleansUp(t *testing.T) {
	g, reg := newWideGen(98)
	alg, mem := spillAlgebra(t, nil, 1)
	p1 := g.wideRelation(reg, "K/PK", "V")
	p2 := g.wideRelation(reg, "K2/PK", "W")
	c, err := alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2")
	if err != nil {
		t.Fatal(err)
	}
	c.Next() // trigger the build (and with it the spilling)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.Spills.Load() == 0 {
		t.Skip("inputs too small to spill") // generator-dependent; never expected
	}
	entries, err := os.ReadDir(mem.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d spill segments leaked after early close", len(entries))
	}
}

// TestMemoryZeroBudgetDisables proves SetMemory with no budget leaves every
// operator on the in-memory path.
func TestMemoryZeroBudgetDisables(t *testing.T) {
	g, reg := newWideGen(99)
	alg := NewAlgebra(nil)
	mem := &Memory{TempDir: t.TempDir()}
	alg.SetMemory(mem)
	p1 := g.wideRelation(reg, "A", "B")
	p2 := g.wideRelation(reg, "A", "B")
	if _, err := Drain(must(alg.StreamUnion(cursorOver(p1), cursorOver(p2)))); err != nil {
		t.Fatal(err)
	}
	if mem.Spills.Load() != 0 || mem.SpilledRows.Load() != 0 {
		t.Fatal("zero budget spilled")
	}
}

func must(c Cursor, err error) Cursor {
	if err != nil {
		panic(err)
	}
	return c
}

// TestApproxTupleBytesChargesWholeCells: the budget charge covers every
// cell's full struct (value plus both tag-set headers) and the string bytes,
// so a budget is not overrun several times before the first spill.
func TestApproxTupleBytesChargesWholeCells(t *testing.T) {
	tup := Tuple{{D: rel.Int(1)}, {D: rel.String("abcd")}, {D: rel.Null()}}
	got := approxTupleBytes(tup)
	want := int64(3*unsafe.Sizeof(Cell{})) + 4
	if got < want {
		t.Fatalf("3-cell tuple charged %d bytes, want at least %d (Cell is %d bytes)", got, want, unsafe.Sizeof(Cell{}))
	}
}
