package core

import (
	"strings"
	"testing"

	"repro/internal/identity"
	"repro/internal/sourceset"
)

func TestCoalesceThreeCases(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	p := NewRelation("P", e.reg, attrs("X", "Y", "Z")...)
	// Equal data: union both tag sets, keep left datum.
	p.Append(Tuple{
		e.cell("v", sourceset.Of(e.ad), sourceset.Of(e.ad)),
		e.cell("v", sourceset.Of(e.pd), sourceset.Of(e.pd)),
		e.cell("z1", sourceset.Of(e.cd), sourceset.Empty()),
	})
	// Right nil: left passes through.
	p.Append(Tuple{
		e.cell("l", sourceset.Of(e.ad), sourceset.Of(e.ad)),
		NilCell(sourceset.Of(e.pd)),
		e.cell("z2", sourceset.Of(e.cd), sourceset.Empty()),
	})
	// Left nil: right passes through.
	p.Append(Tuple{
		NilCell(sourceset.Of(e.ad)),
		e.cell("r", sourceset.Of(e.pd), sourceset.Of(e.pd)),
		e.cell("z3", sourceset.Of(e.cd), sourceset.Empty()),
	})
	got, err := alg.Coalesce(p, "X", "Y", "W")
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, got, "W", "Z")
	wantRows(t, got,
		"v, {AD, PD}, {AD, PD} | z1, {CD}, {}",
		"l, {AD}, {AD} | z2, {CD}, {}",
		"r, {PD}, {PD} | z3, {CD}, {}",
	)
}

func TestCoalesceBothNil(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	p := NewRelation("P", e.reg, attrs("X", "Y")...)
	p.Append(Tuple{NilCell(sourceset.Of(e.ad)), NilCell(sourceset.Of(e.pd))})
	got, err := alg.Coalesce(p, "X", "Y", "W")
	if err != nil {
		t.Fatal(err)
	}
	// Both nil hits the "y is nil" case: x (nil) passes through.
	wantRows(t, got, "nil, {}, {AD}")
}

func TestCoalesceConflictDefaultPolicy(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	p := NewRelation("P", e.reg, attrs("X", "Y")...)
	p.Append(Tuple{
		e.cell("left", sourceset.Of(e.ad), sourceset.Empty()),
		e.cell("right", sourceset.Of(e.cd), sourceset.Of(e.pd)),
	})
	got, err := alg.Coalesce(p, "X", "Y", "W")
	if err != nil {
		t.Fatal(err)
	}
	// Default conflict policy: keep x's datum/origin; y's origin and
	// intermediates join the intermediates (its source was consulted).
	wantRows(t, got, "left, {AD}, {PD, CD}")
}

func TestCoalesceConflictCustomHandler(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	alg.SetConflictHandler(func(x, y Cell) Cell {
		return Cell{D: y.D, O: y.O, I: x.O.Union(x.I).Union(y.I)}
	})
	p := NewRelation("P", e.reg, attrs("X", "Y")...)
	p.Append(Tuple{
		e.cell("left", sourceset.Of(e.ad), sourceset.Empty()),
		e.cell("right", sourceset.Of(e.cd), sourceset.Empty()),
	})
	got, err := alg.Coalesce(p, "X", "Y", "W")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got, "right, {CD}, {AD}")
	alg.SetConflictHandler(nil)
	got2, err := alg.Coalesce(p, "X", "Y", "W")
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, got2, "left, {AD}, {CD}")
}

func TestCoalesceErrors(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	p := e.prel("P", sourceset.Of(e.ad), attrs("X", "Y"), []any{"a", "b"})
	if _, err := alg.Coalesce(p, "X", "X", "W"); err == nil {
		t.Error("coalescing an attribute with itself accepted")
	}
	if _, err := alg.Coalesce(p, "NOPE", "Y", "W"); err == nil {
		t.Error("missing x accepted")
	}
	if _, err := alg.Coalesce(p, "X", "NOPE", "W"); err == nil {
		t.Error("missing y accepted")
	}
}

func TestCoalesceResolverEquality(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(identity.CaseFold{})
	p := NewRelation("P", e.reg, attrs("X", "Y")...)
	p.Append(Tuple{
		e.cell("CitiCorp", sourceset.Of(e.ad), sourceset.Empty()),
		e.cell("Citicorp", sourceset.Of(e.pd), sourceset.Empty()),
	})
	got, err := alg.Coalesce(p, "X", "Y", "ONAME")
	if err != nil {
		t.Fatal(err)
	}
	// Instance-equal (Table A5): left spelling kept, origins unioned.
	wantRows(t, got, "CitiCorp, {AD, PD}, {}")
}

func TestOuterJoinShapes(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	l := e.prel("L", sourceset.Of(e.ad), attrs("K/PK", "V"),
		[]any{"both", "vl"}, []any{"leftonly", "v2"},
	)
	r := e.prel("R", sourceset.Of(e.pd), attrs("K2/PK", "W"),
		[]any{"both", "wr"}, []any{"rightonly", "w2"},
	)
	got, err := alg.OuterJoin(l, "K", r, "K2")
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, got, "K", "V", "K2", "W")
	wantRows(t, got,
		// matched: both origins mediate everywhere
		"both, {AD}, {AD, PD} | vl, {AD}, {AD, PD} | both, {PD}, {AD, PD} | wr, {PD}, {AD, PD}",
		// unmatched left: nil-padded right with o = {}, i = left key origin
		"leftonly, {AD}, {AD} | v2, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}",
		// unmatched right: mirrored
		"nil, {}, {PD} | nil, {}, {PD} | rightonly, {PD}, {PD} | w2, {PD}, {PD}",
	)
}

func TestOuterJoinNullKeysNeverMatch(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	l := NewRelation("L", e.reg, attrs("K/PK")...)
	l.Append(Tuple{NilCell(sourceset.Empty())})
	r := NewRelation("R", e.reg, attrs("K2/PK")...)
	r.Append(Tuple{NilCell(sourceset.Empty())})
	got, err := alg.OuterJoin(l, "K", r, "K2")
	if err != nil {
		t.Fatal(err)
	}
	// Two unmatched rows, not one matched row.
	if got.Cardinality() != 2 {
		t.Errorf("null keys matched in outer join:\n%s", strings.Join(render(got), "\n"))
	}
}

// TestOuterNaturalPrimaryJoin: the Outer Natural Primary Join is a
// two-operand Merge over a scheme that holds only the key — the key columns
// coalesce, every other column is kept side by side.
func TestOuterNaturalPrimaryJoin(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	l := e.prel("L", sourceset.Of(e.ad), attrs("BNAME/ONAME", "IND/INDUSTRY"),
		[]any{"IBM", "High Tech"},
	)
	r := e.prel("R", sourceset.Of(e.pd), attrs("CNAME/ONAME", "TRADE/INDUSTRY"),
		[]any{"IBM", "High Tech"},
	)
	keyOnly := &Scheme{Name: "PORG", Key: "ONAME", Attrs: []PolygenAttr{{Name: "ONAME"}}}
	got, err := alg.Merge(keyOnly, l, r)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, got, "ONAME", "IND", "TRADE")
	wantRows(t, got,
		"IBM, {AD, PD}, {AD, PD} | High Tech, {AD}, {AD, PD} | High Tech, {PD}, {AD, PD}",
	)
}

func orgScheme() *Scheme {
	return &Scheme{
		Name: "PORG",
		Key:  "ONAME",
		Attrs: []PolygenAttr{
			{Name: "ONAME", Mapping: []LocalAttr{
				{DB: "AD", Scheme: "BUSINESS", Attr: "BNAME"},
				{DB: "PD", Scheme: "CORPORATION", Attr: "CNAME"},
				{DB: "CD", Scheme: "FIRM", Attr: "FNAME"},
			}},
			{Name: "INDUSTRY", Mapping: []LocalAttr{
				{DB: "AD", Scheme: "BUSINESS", Attr: "IND"},
				{DB: "PD", Scheme: "CORPORATION", Attr: "TRADE"},
			}},
			{Name: "CEO", Mapping: []LocalAttr{{DB: "CD", Scheme: "FIRM", Attr: "CEO"}}},
			{Name: "HEADQUARTERS", Mapping: []LocalAttr{
				{DB: "PD", Scheme: "CORPORATION", Attr: "STATE"},
				{DB: "CD", Scheme: "FIRM", Attr: "HQ"},
			}},
		},
	}
}

func (e *testEnv) orgRelations() (*Relation, *Relation, *Relation) {
	business := e.prel("BUSINESS", sourceset.Of(e.ad), attrs("BNAME/ONAME", "IND/INDUSTRY"),
		[]any{"IBM", "High Tech"},
		[]any{"MIT", "Education"},
	)
	corp := e.prel("CORPORATION", sourceset.Of(e.pd), attrs("CNAME/ONAME", "TRADE/INDUSTRY", "STATE/HEADQUARTERS"),
		[]any{"IBM", "High Tech", "NY"},
		[]any{"Apple", "High Tech", "CA"},
	)
	firm := e.prel("FIRM", sourceset.Of(e.cd), attrs("FNAME/ONAME", "CEO/CEO", "HQ/HEADQUARTERS"),
		[]any{"IBM", "John Ackers", "NY"},
		[]any{"Apple", "John Sculley", "CA"},
	)
	return business, corp, firm
}

// TestOuterNaturalTotalJoin: the Outer Natural Total Join is the
// two-operand Merge.
func TestOuterNaturalTotalJoin(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	business, corp, _ := e.orgRelations()
	got, err := alg.Merge(orgScheme(), business, corp)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, got, "ONAME", "INDUSTRY", "HEADQUARTERS")
	wantRows(t, got,
		"IBM, {AD, PD}, {AD, PD} | High Tech, {AD, PD}, {AD, PD} | NY, {PD}, {AD, PD}",
		"MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD}",
		"Apple, {PD}, {PD} | High Tech, {PD}, {PD} | CA, {PD}, {PD}",
	)
}

func TestMergeThreeSources(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	business, corp, firm := e.orgRelations()
	got, err := alg.Merge(orgScheme(), business, corp, firm)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, got, "ONAME", "INDUSTRY", "HEADQUARTERS", "CEO")
	wantRows(t, got,
		"IBM, {AD, PD, CD}, {AD, PD, CD} | High Tech, {AD, PD}, {AD, PD, CD} | NY, {PD, CD}, {AD, PD, CD} | John Ackers, {CD}, {AD, PD, CD}",
		"MIT, {AD}, {AD} | Education, {AD}, {AD} | nil, {}, {AD} | nil, {}, {AD}",
		"Apple, {PD, CD}, {PD, CD} | High Tech, {PD}, {PD, CD} | CA, {PD, CD}, {PD, CD} | John Sculley, {CD}, {PD, CD}",
	)
}

func TestMergeSingleRelationNormalizes(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	business, _, _ := e.orgRelations()
	got, err := alg.Merge(orgScheme(), business)
	if err != nil {
		t.Fatal(err)
	}
	wantNames(t, got, "ONAME", "INDUSTRY")
}

func TestMergeZeroRelationsFails(t *testing.T) {
	if _, err := NewAlgebra(nil).Merge(orgScheme()); err == nil {
		t.Error("merge of zero relations accepted")
	}
}

func TestONTJErrorsWithoutKeyAnnotation(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	// No polygen annotations at all: the key cannot be located.
	l := e.prel("L", sourceset.Of(e.ad), attrs("A"), []any{"x"})
	r := e.prel("R", sourceset.Of(e.pd), attrs("B"), []any{"y"})
	if _, err := alg.Merge(orgScheme(), l, r); err == nil {
		t.Error("ONTJ without key annotations accepted")
	}
}

func TestSchemeLocalSchemes(t *testing.T) {
	s := orgScheme()
	lrs := s.LocalSchemes()
	want := []LocalRelation{
		{DB: "AD", Scheme: "BUSINESS"},
		{DB: "PD", Scheme: "CORPORATION"},
		{DB: "CD", Scheme: "FIRM"},
	}
	if len(lrs) != len(want) {
		t.Fatalf("LocalSchemes = %v", lrs)
	}
	for i := range want {
		if lrs[i] != want[i] {
			t.Fatalf("LocalSchemes = %v, want %v", lrs, want)
		}
	}
}

func TestSchemeLocalAttrsOf(t *testing.T) {
	s := orgScheme()
	pairs := s.LocalAttrsOf(LocalRelation{DB: "CD", Scheme: "FIRM"})
	if len(pairs) != 3 {
		t.Fatalf("LocalAttrsOf = %v", pairs)
	}
	if pairs[0] != (AttrPair{Local: "FNAME", Polygen: "ONAME"}) {
		t.Errorf("first pair = %v", pairs[0])
	}
}

// TestMergeRejectsRepeatedSchemeAttr: an operand carrying one scheme
// attribute in two columns has no defined Merge — with one operand the
// normalized names would collide, with more the fold would coalesce the
// operand with itself — so Merge refuses it.
func TestMergeRejectsRepeatedSchemeAttr(t *testing.T) {
	e := newEnv()
	alg := NewAlgebra(nil)
	business, corp, _ := e.orgRelations()
	twice := e.prel("CORPORATION", sourceset.Of(e.pd), attrs("CNAME/ONAME", "TRADE/INDUSTRY", "SECTOR/INDUSTRY"),
		[]any{"IBM", "High Tech", "Computers"},
	)
	for _, rels := range [][]*Relation{{twice}, {business, twice}, {twice, corp, business}} {
		_, err := alg.Merge(orgScheme(), rels...)
		if err == nil || !strings.Contains(err.Error(), `"INDUSTRY" appears twice`) {
			t.Errorf("merge of %d operands with INDUSTRY twice: err = %v", len(rels), err)
		}
	}
}
