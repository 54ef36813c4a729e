package core

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/identity"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Property-based tests for the polygen algebra. Random polygen relations are
// generated over a small value domain (to force collisions) and random tag
// sets, and the §II invariants are checked against them:
//
//   - the data portion of every polygen operator's result equals the plain
//     relational operator applied to the data portions (tagging never
//     changes what data a query returns);
//   - intermediate tags only grow (monotonicity);
//   - Project/Union idempotence and commutativity on the data portion;
//   - Join agrees with its primitive composition (also in join_test.go on
//     fixed cases).

type gen struct{ r *rand.Rand }

func (g *gen) set() sourceset.Set {
	var s sourceset.Set
	n := g.r.Intn(3)
	for i := 0; i < n; i++ {
		s = s.With(sourceset.ID(g.r.Intn(3)))
	}
	return s
}

func (g *gen) value() rel.Value {
	// Small domain: collisions are the interesting case.
	switch g.r.Intn(6) {
	case 0:
		return rel.Null()
	default:
		return rel.String(string(rune('a' + g.r.Intn(4))))
	}
}

func (g *gen) relation(reg *sourceset.Registry, names ...string) *Relation {
	p := NewRelation("G", reg, attrs(names...)...)
	n := g.r.Intn(8)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(names))
		for j := range t {
			t[j] = Cell{D: g.value(), O: g.set(), I: g.set()}
		}
		p.Tuples = append(p.Tuples, t)
	}
	return p
}

func newGen(seed int64) (*gen, *sourceset.Registry) {
	reg := sourceset.NewRegistry()
	reg.Intern("AD")
	reg.Intern("PD")
	reg.Intern("CD")
	return &gen{r: rand.New(rand.NewSource(seed))}, reg
}

// dataRows renders the data portion of a polygen relation as a sorted
// multiset of strings.
func dataRows(p *Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = c.D.Key()
		}
		out = append(out, strings.Join(parts, "\x01"))
	}
	sort.Strings(out)
	return out
}

// plainRows renders a plain relation the same way (set semantics: callers
// pass deduplicated relations).
func plainRows(r *rel.Relation) []string {
	out := make([]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.Key()
		}
		out = append(out, strings.Join(parts, "\x01"))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
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

// The naive untagged operators below are the baseline the polygen
// operators' data portions are checked against. Row identity is the
// Value.Key rendering (Tuple.Key), so they share nothing with
// rel.BucketIndex or Hash64, which the engine under test uses.

// naiveSelect keeps the rows whose attr θ constant holds.
func naiveSelect(r *rel.Relation, attr string, theta rel.Theta, c rel.Value) *rel.Relation {
	ci := r.Schema.Index(attr)
	return naiveFilter(r, func(t rel.Tuple) bool { return theta.Eval(t[ci], c) })
}

// naiveRestrict keeps the rows whose x θ y holds.
func naiveRestrict(r *rel.Relation, x string, theta rel.Theta, y string) *rel.Relation {
	xi, yi := r.Schema.Index(x), r.Schema.Index(y)
	return naiveFilter(r, func(t rel.Tuple) bool { return theta.Eval(t[xi], t[yi]) })
}

func naiveFilter(r *rel.Relation, keep func(rel.Tuple) bool) *rel.Relation {
	out := rel.NewRelation("", r.Schema)
	for _, t := range r.Tuples {
		if keep(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// naiveProject narrows r to attrs with duplicates eliminated.
func naiveProject(r *rel.Relation, attrs ...string) *rel.Relation {
	out := rel.NewRelation("", rel.SchemaOf(attrs...))
	seen := make(map[string]bool)
	for _, t := range r.Tuples {
		row := make(rel.Tuple, len(attrs))
		for i, a := range attrs {
			row[i] = t[r.Schema.Index(a)]
		}
		if k := row.Key(); !seen[k] {
			seen[k] = true
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out
}

// dedup returns the set-semantics version of a plain relation.
func dedup(r *rel.Relation) *rel.Relation { return naiveProject(r, r.Schema.Names()...) }

// naiveUnion is the set union of two relations over the same columns.
func naiveUnion(a, b *rel.Relation) *rel.Relation {
	both := rel.NewRelation("", a.Schema)
	both.Tuples = append(append(both.Tuples, a.Tuples...), b.Tuples...)
	return dedup(both)
}

// naiveDifference is the set of a's rows absent from b.
func naiveDifference(a, b *rel.Relation) *rel.Relation {
	drop := make(map[string]bool, len(b.Tuples))
	for _, t := range b.Tuples {
		drop[t.Key()] = true
	}
	return dedup(naiveFilter(a, func(t rel.Tuple) bool { return !drop[t.Key()] }))
}

func TestPropertySelectDataAgreesWithBaseline(t *testing.T) {
	g, reg := newGen(1)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p := g.relation(reg, "A", "B")
		c := g.value()
		got, err := alg.Select(p, "A", rel.ThetaEQ, c)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveSelect(p.Data(), "A", rel.ThetaEQ, c)
		if !equalStrings(dataRows(got), plainRows(want)) {
			t.Fatalf("iteration %d: select data diverged from baseline", i)
		}
	}
}

func TestPropertyRestrictDataAgreesWithBaseline(t *testing.T) {
	g, reg := newGen(2)
	alg := NewAlgebra(nil)
	thetas := []rel.Theta{rel.ThetaEQ, rel.ThetaNE, rel.ThetaLT, rel.ThetaGE}
	for i := 0; i < 300; i++ {
		p := g.relation(reg, "A", "B")
		theta := thetas[g.r.Intn(len(thetas))]
		got, err := alg.Restrict(p, "A", theta, "B")
		if err != nil {
			t.Fatal(err)
		}
		want := naiveRestrict(p.Data(), "A", theta, "B")
		if !equalStrings(dataRows(got), plainRows(want)) {
			t.Fatalf("iteration %d (θ=%v): restrict data diverged from baseline", i, theta)
		}
	}
}

func TestPropertyProjectDataAgreesWithBaseline(t *testing.T) {
	g, reg := newGen(3)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p := g.relation(reg, "A", "B", "C")
		got, err := alg.Project(p, []string{"B", "A"})
		if err != nil {
			t.Fatal(err)
		}
		want := naiveProject(p.Data(), "B", "A")
		if !equalStrings(dataRows(got), plainRows(want)) {
			t.Fatalf("iteration %d: project data diverged from baseline", i)
		}
	}
}

func TestPropertyUnionDifferenceAgreeWithBaseline(t *testing.T) {
	g, reg := newGen(4)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p1 := g.relation(reg, "A", "B")
		p2 := g.relation(reg, "A", "B")
		u, err := alg.Union(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		ubase := naiveUnion(p1.Data(), p2.Data())
		if !equalStrings(dataRows(u), plainRows(ubase)) {
			t.Fatalf("iteration %d: union data diverged", i)
		}
		d, err := alg.Difference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		dbase := naiveDifference(p1.Data(), p2.Data())
		if !equalStrings(dataRows(d), plainRows(dbase)) {
			t.Fatalf("iteration %d: difference data diverged", i)
		}
	}
}

func TestPropertyJoinAgreesWithPrimitives(t *testing.T) {
	g, reg := newGen(5)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p1 := g.relation(reg, "K/PK", "V")
		p2 := g.relation(reg, "K2/PK", "W")
		fast, err := alg.Join(p1, "K", rel.ThetaEQ, p2, "K2")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := alg.JoinViaPrimitives(p1, "K", rel.ThetaEQ, p2, "K2")
		if err != nil {
			t.Fatal(err)
		}
		// Full-cell comparison, tags included.
		fr := render(fast)
		rr := render(ref)
		sort.Strings(fr)
		sort.Strings(rr)
		if !equalStrings(fr, rr) {
			t.Fatalf("iteration %d: hash join diverged from primitive composition:\nfast:\n%s\nref:\n%s",
				i, strings.Join(fr, "\n"), strings.Join(rr, "\n"))
		}
	}
}

// TestPropertyIntermediateMonotonic: no polygen operator ever removes a
// source from an intermediate tag of a surviving cell.
func TestPropertyIntermediateMonotonic(t *testing.T) {
	g, reg := newGen(6)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p := g.relation(reg, "A", "B")
		// Duplicate data tuples may carry different tags; a surviving tuple
		// is monotone if SOME input tuple with the same data has a subset
		// intermediate tag.
		before := make(map[string][]sourceset.Set)
		for _, t := range p.Tuples {
			before[t.DataKey()] = append(before[t.DataKey()], t[0].I)
		}
		got, err := alg.Restrict(p, "A", rel.ThetaEQ, "B")
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range got.Tuples {
			candidates, ok := before[tu.DataKey()]
			if !ok {
				t.Fatalf("iteration %d: restrict invented a tuple", i)
			}
			monotone := false
			for _, b := range candidates {
				if b.Subset(tu[0].I) {
					monotone = true
					break
				}
			}
			if !monotone {
				t.Fatalf("iteration %d: intermediate set shrank", i)
			}
		}
	}
}

// TestPropertyProjectIdempotent: projecting onto all attributes twice equals
// projecting once (set semantics with tag merging is stable).
func TestPropertyProjectIdempotent(t *testing.T) {
	g, reg := newGen(7)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p := g.relation(reg, "A", "B")
		once, err := alg.Project(p, []string{"A", "B"})
		if err != nil {
			t.Fatal(err)
		}
		twice, err := alg.Project(once, []string{"A", "B"})
		if err != nil {
			t.Fatal(err)
		}
		o, w := render(once), render(twice)
		sort.Strings(o)
		sort.Strings(w)
		if !equalStrings(o, w) {
			t.Fatalf("iteration %d: project not idempotent", i)
		}
	}
}

// TestPropertyUnionCommutativeOnTags: Union(p1,p2) and Union(p2,p1) carry
// identical tags cell for cell (data order may differ).
func TestPropertyUnionCommutativeOnTags(t *testing.T) {
	g, reg := newGen(8)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p1 := g.relation(reg, "A")
		p2 := g.relation(reg, "A")
		u12, err := alg.Union(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		u21, err := alg.Union(p2, p1)
		if err != nil {
			t.Fatal(err)
		}
		a, b := render(u12), render(u21)
		sort.Strings(a)
		sort.Strings(b)
		if !equalStrings(a, b) {
			t.Fatalf("iteration %d: union tags not commutative", i)
		}
	}
}

// TestPropertyUnionIdempotentData: p ∪ p has p's data (deduplicated).
func TestPropertyUnionIdempotentData(t *testing.T) {
	g, reg := newGen(9)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p := g.relation(reg, "A", "B")
		u, err := alg.Union(p, p)
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(dataRows(u), plainRows(dedup(p.Data()))) {
			t.Fatalf("iteration %d: p ∪ p data != dedup(p)", i)
		}
	}
}

// TestPropertyDifferenceDisjoint: (p1 − p2) shares no data tuple with p2.
func TestPropertyDifferenceDisjoint(t *testing.T) {
	g, reg := newGen(10)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p1 := g.relation(reg, "A")
		p2 := g.relation(reg, "A")
		d, err := alg.Difference(p1, p2)
		if err != nil {
			t.Fatal(err)
		}
		inP2 := make(map[string]bool)
		for _, t2 := range p2.Tuples {
			inP2[t2.DataKey()] = true
		}
		for _, td := range d.Tuples {
			if inP2[td.DataKey()] {
				t.Fatalf("iteration %d: difference kept a p2 tuple", i)
			}
		}
	}
}

// TestPropertyOuterJoinCoversBothOperands: every operand tuple's data
// appears in some outer-join row (left rows in the left columns, right rows
// in the right columns).
func TestPropertyOuterJoinCoversBothOperands(t *testing.T) {
	g, reg := newGen(11)
	alg := NewAlgebra(nil)
	for i := 0; i < 150; i++ {
		p1 := g.relation(reg, "K/PK", "V")
		p2 := g.relation(reg, "K2/PK", "W")
		oj, err := alg.OuterJoin(p1, "K", p2, "K2")
		if err != nil {
			t.Fatal(err)
		}
		leftSeen := make(map[string]bool)
		rightSeen := make(map[string]bool)
		for _, t := range oj.Tuples {
			leftSeen[Tuple(t[:2]).DataKey()] = true
			rightSeen[Tuple(t[2:]).DataKey()] = true
		}
		for _, t1 := range p1.Tuples {
			if !leftSeen[t1.DataKey()] {
				t.Fatalf("iteration %d: outer join lost a left tuple", i)
			}
		}
		for _, t2 := range p2.Tuples {
			if !rightSeen[t2.DataKey()] {
				t.Fatalf("iteration %d: outer join lost a right tuple", i)
			}
		}
	}
}

// TestPropertyCoalesceKeepsDegreeAndCardinality: coalesce removes exactly
// one column and no tuples.
func TestPropertyCoalesceKeepsDegreeAndCardinality(t *testing.T) {
	g, reg := newGen(12)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p := g.relation(reg, "X", "Y", "Z")
		c, err := alg.Coalesce(p, "X", "Y", "W")
		if err != nil {
			t.Fatal(err)
		}
		if c.Degree() != p.Degree()-1 {
			t.Fatalf("iteration %d: degree %d, want %d", i, c.Degree(), p.Degree()-1)
		}
		if c.Cardinality() != p.Cardinality() {
			t.Fatalf("iteration %d: cardinality changed", i)
		}
	}
}

// ---------------------------------------------------------------------------
// Hash-keyed engine vs. string-keyed reference (reference.go).
//
// The rewritten operators bucket by Tuple.DataHash64 and by the hash of
// Resolver.Canon; the reference operators key maps by Tuple.DataKey /
// Resolver.Canonical strings. The two must agree cell for cell — data and both tag sets. Tag
// sets are drawn from up to 100 sources so the sourceset overflow path
// (IDs >= 64, stored in the sorted rest slice) is exercised as well.

// newWideGen is newGen with 100 databases interned, so rendered tags can
// name IDs beyond the 64-bit bitmask.
func newWideGen(seed int64) (*gen, *sourceset.Registry) {
	reg := sourceset.NewRegistry()
	for i := 0; i < 100; i++ {
		reg.Intern(workloadDBName(i))
	}
	return &gen{r: rand.New(rand.NewSource(seed))}, reg
}

func workloadDBName(i int) string { return "D" + strconv.Itoa(i) }

// wideSet draws up to three source IDs from [0, 100) — beyond 64 the set
// spills into the overflow slice.
func (g *gen) wideSet() sourceset.Set {
	var s sourceset.Set
	n := g.r.Intn(4)
	for i := 0; i < n; i++ {
		s = s.With(sourceset.ID(g.r.Intn(100)))
	}
	return s
}

// wideRelation is relation() with wideSet tags and mixed-kind values.
func (g *gen) wideRelation(reg *sourceset.Registry, names ...string) *Relation {
	p := NewRelation("G", reg, attrs(names...)...)
	n := g.r.Intn(10)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(names))
		for j := range t {
			t[j] = Cell{D: g.mixedValue(), O: g.wideSet(), I: g.wideSet()}
		}
		p.Tuples = append(p.Tuples, t)
	}
	return p
}

// mixedValue draws from a small mixed-kind domain (strings, ints, floats,
// bools, nulls, NaN) so kind-tagged hashing is exercised, with heavy
// collisions. NaN is included because it is the one value where Equal and
// the engines' datum identity (Value.Identical / DataKey) deliberately
// disagree.
func (g *gen) mixedValue() rel.Value {
	switch g.r.Intn(9) {
	case 0:
		return rel.Null()
	case 1:
		return rel.Int(int64(g.r.Intn(3)))
	case 2:
		return rel.Float(float64(g.r.Intn(3)) / 2)
	case 3:
		return rel.Bool(g.r.Intn(2) == 0)
	case 4:
		return rel.Float(math.NaN())
	case 5:
		return rel.Float(math.Copysign(0, -1)) // -0: one datum with +0 everywhere
	default:
		return rel.String(string(rune('a' + g.r.Intn(4))))
	}
}

// wantSameRendered asserts two relations agree cell for cell (data, origin
// and intermediate tags), order-insensitively.
func wantSameRendered(t *testing.T, label string, i int, got, ref *Relation) {
	t.Helper()
	gr, rr := render(got), render(ref)
	sort.Strings(gr)
	sort.Strings(rr)
	if !equalStrings(gr, rr) {
		t.Fatalf("iteration %d: %s: hash-keyed result diverged from string-keyed reference:\nhash:\n%s\nref:\n%s",
			i, label, strings.Join(gr, "\n"), strings.Join(rr, "\n"))
	}
}

func TestPropertyHashProjectMatchesReference(t *testing.T) {
	g, reg := newWideGen(20)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p := g.wideRelation(reg, "A", "B", "C")
		got, err := alg.Project(p, []string{"C", "A"})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := alg.RefProject(p, []string{"C", "A"})
		if err != nil {
			t.Fatal(err)
		}
		wantSameRendered(t, "project", i, got, ref)
	}
}

func TestPropertyHashUnionDifferenceIntersectMatchReference(t *testing.T) {
	g, reg := newWideGen(21)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		for _, op := range []struct {
			name string
			fast func(_, _ *Relation) (*Relation, error)
			ref  func(_, _ *Relation) (*Relation, error)
		}{
			{"union", alg.Union, alg.RefUnion},
			{"difference", alg.Difference, alg.RefDifference},
			{"intersect", alg.Intersect, alg.RefIntersect},
		} {
			got, err := op.fast(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := op.ref(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, op.name, i, got, ref)
		}
	}
}

// propertyResolvers are the resolvers the keyed operators are held to the
// reference under: exact matching, case folding, and a synonym table over
// case folding.
var propertyResolvers = []identity.Resolver{
	identity.Exact{},
	identity.CaseFold{},
	identity.NewSynonyms(identity.CaseFold{},
		[]rel.Value{rel.String("a"), rel.String("b")},
		[]rel.Value{rel.String("c"), rel.String("d")},
	),
}

func TestPropertyHashJoinMatchesReference(t *testing.T) {
	for ri, res := range propertyResolvers {
		g, reg := newWideGen(int64(30 + ri))
		alg := NewAlgebra(res)
		for i := 0; i < 200; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			got, err := alg.Join(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := alg.RefJoin(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "join", i, got, ref)
		}
	}
}

func TestPropertyHashOuterJoinMatchesReference(t *testing.T) {
	for ri, res := range propertyResolvers {
		g, reg := newWideGen(int64(40 + ri))
		alg := NewAlgebra(res)
		for i := 0; i < 200; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			got, err := alg.OuterJoin(p1, "K", p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			ref, err := alg.RefOuterJoin(p1, "K", p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "outer join", i, got, ref)
		}
	}
}

func TestPropertyHashMergeMatchesReference(t *testing.T) {
	scheme := &Scheme{
		Name: "PG",
		Key:  "K",
		Attrs: []PolygenAttr{
			{Name: "K"}, {Name: "A"}, {Name: "B"},
		},
	}
	for ri, res := range propertyResolvers {
		g, reg := newWideGen(int64(50 + ri))
		alg := NewAlgebra(res)
		for i := 0; i < 100; i++ {
			p1 := g.wideRelation(reg, "K/K", "A/A")
			p2 := g.wideRelation(reg, "K2/K", "B/B")
			p3 := g.wideRelation(reg, "K3/K", "A2/A")
			got, err := alg.Merge(scheme, p1, p2, p3)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := alg.RefMerge(scheme, p1, p2, p3)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "merge", i, got, ref)
		}
	}
}

// mergeScheme is the scheme of the n-way Merge property cases.
var mergeScheme = &Scheme{
	Name:  "PG",
	Key:   "K",
	Attrs: []PolygenAttr{{Name: "K"}, {Name: "A"}, {Name: "B"}, {Name: "C"}},
}

// mergeFragment draws one Merge operand: the key plus a random subset of
// A/B/C in random order, each under its polygen name or a local one, and
// sometimes an unannotated column, over wide cells.
func (g *gen) mergeFragment(reg *sourceset.Registry) *Relation {
	local := func(pa string) string {
		if g.r.Intn(2) == 0 {
			return pa + "/" + pa
		}
		return "L" + pa + "/" + pa
	}
	names := []string{local("K")}
	for _, i := range g.r.Perm(3)[:g.r.Intn(4)] {
		names = append(names, local(string(rune('A'+i))))
	}
	if g.r.Intn(3) == 0 {
		names = append(names, "U")
	}
	g.r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return g.wideRelation(reg, names...)
}

// TestPropertyMergeNWayMatchesReference holds the keyed Merge to the
// reference fold of string-keyed Outer Natural Total Joins over 1–8
// operands — duplicate and null keys, NaN and -0, tags past ID 64 — under
// every property resolver and the default and a custom conflict handler:
// the same attribute list, and the same rows cell for cell.
func TestPropertyMergeNWayMatchesReference(t *testing.T) {
	handlers := []ConflictHandler{nil, func(x, y Cell) Cell {
		return Cell{D: y.D, O: y.O.Union(x.O), I: x.I}
	}}
	for ri, res := range propertyResolvers {
		for hi, h := range handlers {
			g, reg := newWideGen(int64(90 + 2*ri + hi))
			alg := NewAlgebra(res)
			alg.SetConflictHandler(h)
			for i := 0; i < 400; i++ {
				rels := make([]*Relation, 1+g.r.Intn(8))
				for k := range rels {
					rels[k] = g.mergeFragment(reg)
				}
				got, err := alg.Merge(mergeScheme, rels...)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := alg.RefMerge(mergeScheme, rels...)
				if err != nil {
					t.Fatal(err)
				}
				wantSameAttrs(t, i, got, ref)
				wantSameRendered(t, "n-way merge", i, got, ref)
			}
		}
	}
}

// wantSameAttrs asserts two relations have identical attribute lists.
func wantSameAttrs(t *testing.T, i int, got, ref *Relation) {
	t.Helper()
	if len(got.Attrs) != len(ref.Attrs) {
		t.Fatalf("iteration %d: attrs %v, reference %v", i, got.Attrs, ref.Attrs)
	}
	for k := range got.Attrs {
		if got.Attrs[k] != ref.Attrs[k] {
			t.Fatalf("iteration %d: attrs %v, reference %v", i, got.Attrs, ref.Attrs)
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming operators vs. reference, across batch boundaries.
//
// The streaming operators (stream.go) consume cursors batch-at-a-time; the
// cursors here use a deliberately tiny batch size so every operator crosses
// many batch boundaries. Inputs are wide relations: mixed-kind data
// including NaN and -0 (the data where identity rules are subtle) and tag
// sets drawn from 100 sources (exercising the >64-ID sourceset overflow
// path). Results must agree with the string-keyed Ref* operators — or, for
// Select, Restrict and Product, which have none, with plain per-tuple
// loops written from §II — cell for cell: data, origin tags and
// intermediate tags.

// streamBatch is the batch size used by the streaming property tests: small
// enough that even the tiny random relations span several batches.
const streamBatch = 3

// cursorOver cuts p into streamBatch-sized batches.
func cursorOver(p *Relation) Cursor { return NewRelationCursor(p, streamBatch) }

// mustDrain runs a streaming operator construction to completion; its
// signature matches the (Cursor, error) returns of the Stream* operators so
// calls compose directly.
func mustDrain(c Cursor, err error) *Relation {
	if err != nil {
		panic(err)
	}
	out, err := Drain(c)
	if err != nil {
		panic(err)
	}
	return out
}

// refFilter is §II's Restrict shape as a materialized per-tuple loop:
// tuples satisfying keep survive with data and origins unchanged, and every
// cell's intermediate set gains med(t).
func refFilter(p *Relation, keep func(Tuple) bool, med func(Tuple) sourceset.Set) *Relation {
	out := NewRelation("", p.Reg, p.Attrs...)
	for _, t := range p.Tuples {
		if !keep(t) {
			continue
		}
		m := med(t)
		row := make(Tuple, len(t))
		for i, c := range t {
			row[i] = c.WithIntermediate(m)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// refTheta is evalTheta over canonical strings (sameRef) instead of
// interned IDs.
func refTheta(a *Algebra, x rel.Value, theta rel.Theta, y rel.Value) bool {
	switch theta {
	case rel.ThetaEQ:
		return a.sameRef(x, y)
	case rel.ThetaNE:
		return !x.IsNull() && !y.IsNull() && !a.sameRef(x, y)
	default:
		return theta.Eval(x, y)
	}
}

// refProduct is the Cartesian product as a materialized nested loop: tuple
// concatenation, no tag updates.
func refProduct(p1, p2 *Relation) *Relation {
	out := NewRelation("", p1.Reg, productAttrs(p1.Attrs, p2.Name, p2.Attrs)...)
	for _, t1 := range p1.Tuples {
		for _, t2 := range p2.Tuples {
			out.Tuples = append(out.Tuples, append(append(Tuple{}, t1...), t2...))
		}
	}
	return out
}

func TestPropertyStreamSelectRestrictMatchMaterialized(t *testing.T) {
	g, reg := newWideGen(70)
	alg := NewAlgebra(nil)
	thetas := []rel.Theta{rel.ThetaEQ, rel.ThetaNE, rel.ThetaLT, rel.ThetaGE}
	for i := 0; i < 300; i++ {
		p := g.wideRelation(reg, "A", "B")
		c := g.mixedValue()
		theta := thetas[g.r.Intn(len(thetas))]

		sRef := refFilter(p,
			func(t Tuple) bool { return theta.Eval(t[0].D, c) },
			func(t Tuple) sourceset.Set { return t[0].O })
		sStr := mustDrain(alg.StreamSelect(cursorOver(p), "A", theta, c))
		wantSameRendered(t, "stream select", i, sStr, sRef)

		rRef := refFilter(p,
			func(t Tuple) bool { return refTheta(alg, t[0].D, theta, t[1].D) },
			func(t Tuple) sourceset.Set { return t[0].O.Union(t[1].O) })
		rStr := mustDrain(alg.StreamRestrict(cursorOver(p), "A", theta, "B"))
		wantSameRendered(t, "stream restrict", i, rStr, rRef)
	}
}

func TestPropertyStreamProjectMatchesEngines(t *testing.T) {
	g, reg := newWideGen(71)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p := g.wideRelation(reg, "A", "B", "C")
		ref, err := alg.RefProject(p, []string{"C", "A"})
		if err != nil {
			t.Fatal(err)
		}
		str := mustDrain(alg.StreamProject(cursorOver(p), []string{"C", "A"}))
		wantSameRendered(t, "stream project vs reference", i, str, ref)
	}
}

func TestPropertyStreamBinaryOpsMatchEngines(t *testing.T) {
	g, reg := newWideGen(72)
	alg := NewAlgebra(nil)
	for i := 0; i < 300; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "B")
		for _, op := range []struct {
			name   string
			stream func(_, _ Cursor) (Cursor, error)
			ref    func(_, _ *Relation) (*Relation, error)
		}{
			{"union", alg.StreamUnion, alg.RefUnion},
			{"difference", alg.StreamDifference, alg.RefDifference},
			{"intersect", alg.StreamIntersect, alg.RefIntersect},
		} {
			str := mustDrain(op.stream(cursorOver(p1), cursorOver(p2)))
			ref, err := op.ref(p1, p2)
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "stream "+op.name+" vs reference", i, str, ref)
		}
	}
}

func TestPropertyStreamProductMatchesMaterialized(t *testing.T) {
	g, reg := newWideGen(73)
	alg := NewAlgebra(nil)
	for i := 0; i < 200; i++ {
		p1 := g.wideRelation(reg, "A", "B")
		p2 := g.wideRelation(reg, "A", "C")
		str := mustDrain(alg.StreamProduct(cursorOver(p1), cursorOver(p2)))
		wantSameRendered(t, "stream product", i, str, refProduct(p1, p2))
	}
}

func TestPropertyStreamJoinMatchesEngines(t *testing.T) {
	for ri, res := range propertyResolvers {
		g, reg := newWideGen(int64(74 + ri))
		alg := NewAlgebra(res)
		for i := 0; i < 200; i++ {
			p1 := g.wideRelation(reg, "K/PK", "V")
			p2 := g.wideRelation(reg, "K2/PK", "W")
			str := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaEQ, cursorOver(p2), "K2"))
			ref, err := alg.RefJoin(p1, "K", rel.ThetaEQ, p2, "K2")
			if err != nil {
				t.Fatal(err)
			}
			wantSameRendered(t, "stream join vs reference", i, str, ref)
		}
	}
}

// TestPropertyStreamThetaJoinMatchesMaterialized covers the non-equality
// fallback against the restriction of the materialized product (the join
// attributes are distinct, so nothing coalesces).
func TestPropertyStreamThetaJoinMatchesMaterialized(t *testing.T) {
	g, reg := newWideGen(77)
	alg := NewAlgebra(nil)
	for i := 0; i < 100; i++ {
		p1 := g.wideRelation(reg, "K", "V")
		p2 := g.wideRelation(reg, "K2", "W")
		str := mustDrain(alg.StreamJoin(cursorOver(p1), "K", rel.ThetaLT, cursorOver(p2), "K2"))
		ref := refFilter(refProduct(p1, p2),
			func(t Tuple) bool { return rel.ThetaLT.Eval(t[0].D, t[2].D) },
			func(t Tuple) sourceset.Set { return t[0].O.Union(t[2].O) })
		wantSameRendered(t, "stream theta join", i, str, ref)
	}
}

func TestPropertyStreamMergeMatchesEngines(t *testing.T) {
	scheme := &Scheme{
		Name: "PG",
		Key:  "K",
		Attrs: []PolygenAttr{
			{Name: "K"}, {Name: "A"}, {Name: "B"},
		},
	}
	g, reg := newWideGen(78)
	alg := NewAlgebra(identity.CaseFold{})
	for i := 0; i < 100; i++ {
		p1 := g.wideRelation(reg, "K/K", "A/A")
		p2 := g.wideRelation(reg, "K2/K", "B/B")
		p3 := g.wideRelation(reg, "K3/K", "A2/A")
		str := mustDrain(alg.StreamMerge(scheme, cursorOver(p1), cursorOver(p2), cursorOver(p3)))
		ref, err := alg.RefMerge(scheme, p1, p2, p3)
		if err != nil {
			t.Fatal(err)
		}
		wantSameRendered(t, "stream merge vs reference", i, str, ref)
	}
}

// TestNaNDatumIdentity pins the NaN semantics of the hash engine against
// the string-keyed reference: DataKey formats every NaN identically, so
// duplicate elimination and joins must treat all NaNs as one datum even
// though rel's Equal follows IEEE (NaN != NaN).
func TestNaNDatumIdentity(t *testing.T) {
	_, reg := newGen(60)
	alg := NewAlgebra(nil)
	p := NewRelation("N", reg, attrs("A")...)
	p.Tuples = append(p.Tuples,
		Tuple{Cell{D: rel.Float(math.NaN()), O: sourceset.Of(0)}},
		Tuple{Cell{D: rel.Float(math.NaN()), O: sourceset.Of(1)}},
	)
	u, err := alg.Union(p, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := alg.RefUnion(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if u.Cardinality() != 1 || ref.Cardinality() != 1 {
		t.Fatalf("Union(p,p) over NaN tuples: hash=%d rows, reference=%d rows, want 1 and 1",
			u.Cardinality(), ref.Cardinality())
	}
	wantSameRendered(t, "nan union", 0, u, ref)
	j, err := alg.Join(p, "A", rel.ThetaEQ, p, "A")
	if err != nil {
		t.Fatal(err)
	}
	jr, err := alg.RefJoin(p, "A", rel.ThetaEQ, p, "A")
	if err != nil {
		t.Fatal(err)
	}
	wantSameRendered(t, "nan join", 0, j, jr)
	su := mustDrain(alg.StreamUnion(cursorOver(p), cursorOver(p)))
	wantSameRendered(t, "nan stream union", 0, su, ref)
	sj := mustDrain(alg.StreamJoin(cursorOver(p), "A", rel.ThetaEQ, cursorOver(p), "A"))
	wantSameRendered(t, "nan stream join", 0, sj, jr)
}

// TestSignedZeroDatumIdentity pins the ±0 semantics: Equal, Identical, Key
// and Hash64 all treat +0.0 and -0.0 as one datum, so both engines
// must deduplicate and join them identically.
func TestSignedZeroDatumIdentity(t *testing.T) {
	_, reg := newGen(61)
	alg := NewAlgebra(nil)
	p := NewRelation("Z", reg, attrs("A")...)
	p.Tuples = append(p.Tuples,
		Tuple{Cell{D: rel.Float(0), O: sourceset.Of(0)}},
		Tuple{Cell{D: rel.Float(math.Copysign(0, -1)), O: sourceset.Of(1)}},
	)
	u, err := alg.Union(p, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := alg.RefUnion(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if u.Cardinality() != 1 || ref.Cardinality() != 1 {
		t.Fatalf("Union(p,p) over ±0 tuples: hash=%d rows, reference=%d rows, want 1 and 1",
			u.Cardinality(), ref.Cardinality())
	}
	wantSameRendered(t, "signed-zero union", 0, u, ref)
	j, err := alg.Join(p, "A", rel.ThetaEQ, p, "A")
	if err != nil {
		t.Fatal(err)
	}
	jr, err := alg.RefJoin(p, "A", rel.ThetaEQ, p, "A")
	if err != nil {
		t.Fatal(err)
	}
	wantSameRendered(t, "signed-zero join", 0, j, jr)
	su := mustDrain(alg.StreamUnion(cursorOver(p), cursorOver(p)))
	wantSameRendered(t, "signed-zero stream union", 0, su, ref)
	sj := mustDrain(alg.StreamJoin(cursorOver(p), "A", rel.ThetaEQ, cursorOver(p), "A"))
	wantSameRendered(t, "signed-zero stream join", 0, sj, jr)
}
