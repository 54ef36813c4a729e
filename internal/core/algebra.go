package core

import (
	"fmt"

	"repro/internal/identity"
	"repro/internal/rel"
)

// Algebra evaluates polygen algebraic operators. It carries the
// inter-database instance resolver used for attribute–attribute equality
// (paper §I assumes instance identifier mismatches are resolved and "the
// information is available for the PQP to use"); the zero value — or
// NewAlgebra(nil) — compares exactly.
type Algebra struct {
	resolver identity.Resolver
	conflict ConflictHandler
	exact    bool
	// mem, when non-nil with a positive budget, bounds the blocking state
	// of the streaming hash operators: a build past it fails with
	// ErrOverBudget (budget.go).
	mem *Memory
}

// NewAlgebra returns an Algebra using r to canonicalize values in
// attribute–attribute equality comparisons. A nil r means exact comparison.
// A resolver is immutable, so the Algebra holds it as is: one resolver may
// serve any number of algebras and concurrent queries.
func NewAlgebra(r identity.Resolver) *Algebra {
	_, exact := r.(identity.Exact)
	if r == nil {
		r, exact = identity.Exact{}, true
	}
	return &Algebra{resolver: r, exact: exact}
}

// ResolverIsExact reports whether the algebra compares instances exactly
// (nil or identity.Exact resolver). The plan optimizer consults it: rewrites
// that move an attribute–attribute comparison across the LQP boundary, or
// reorder which operand of a Coalesce survives, are only identity-preserving
// when instance equality is plain value equality.
func (a *Algebra) ResolverIsExact() bool {
	return a.exact || a.resolver == nil
}

// Resolver returns the instance resolver in use.
func (a *Algebra) Resolver() identity.Resolver {
	if a.resolver == nil {
		return identity.Exact{}
	}
	return a.resolver
}

// same reports whether two data values denote the same instance under the
// algebra's resolver. Nulls never match. It compares canonical values
// (Resolver.Canon) instead of materializing two canonical strings.
func (a *Algebra) same(x, y rel.Value) bool {
	if x.IsNull() || y.IsNull() {
		return false
	}
	r := a.Resolver()
	return r.Canon(x).Identical(r.Canon(y))
}

// evalTheta applies θ between two data values, routing equality and
// inequality through the instance resolver and ordered comparisons through
// plain value ordering.
func (a *Algebra) evalTheta(x rel.Value, theta rel.Theta, y rel.Value) bool {
	switch theta {
	case rel.ThetaEQ:
		return a.same(x, y)
	case rel.ThetaNE:
		if x.IsNull() || y.IsNull() {
			return false
		}
		return !a.same(x, y)
	default:
		return theta.Eval(x, y)
	}
}

// Project implements the Project primitive p[X]: the columns of X, with
// tuples whose data portions coincide collapsed into one tuple whose tag
// sets are the unions of the collapsed tuples' tags, attribute by attribute.
func (a *Algebra) Project(p *Relation, attrs []string) (*Relation, error) {
	return drained(a.StreamProject(CursorOf(p), attrs))
}

// Product implements the Cartesian Product primitive p1 × p2: tuple
// concatenation with no tag updates. Column names of p2 colliding with p1
// are qualified with p2's name (or a positional suffix); the polygen
// attribute annotations are preserved.
func (a *Algebra) Product(p1, p2 *Relation) (*Relation, error) {
	return drained(a.StreamProduct(CursorOf(p1), CursorOf(p2)))
}

// productAttrs computes the output attribute list of a Cartesian product:
// the left attributes followed by the right ones, with colliding right
// names qualified by the right relation's name (or a positional suffix).
// The streaming Product uses it.
func productAttrs(attrs1 []Attr, name2 string, attrs2 []Attr) []Attr {
	attrs := append([]Attr(nil), attrs1...)
	for _, at := range attrs2 {
		name := at.Name
		if hasAttrName(attrs, name) {
			name = disambiguateName(attrs, name2, at.Name)
		}
		attrs = append(attrs, Attr{Name: name, Polygen: at.Polygen})
	}
	return attrs
}

func hasAttrName(attrs []Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

func disambiguateName(attrs []Attr, relName, attrName string) string {
	cand := attrName
	if relName != "" {
		cand = relName + "." + attrName
	}
	for i := 2; hasAttrName(attrs, cand); i++ {
		cand = fmt.Sprintf("%s#%d", attrName, i)
	}
	return cand
}

// Restrict implements the Restrict primitive p[x θ y] between two attributes
// of p: tuples satisfying the condition survive with their data and origin
// tags unchanged and with the origins of the two operand attributes added to
// the intermediate set of every cell — "to signify their mediating role"
// (paper, §II).
func (a *Algebra) Restrict(p *Relation, x string, theta rel.Theta, y string) (*Relation, error) {
	return drained(a.StreamRestrict(CursorOf(p), x, theta, y))
}

// Select implements the derived Select operator p[x θ const]. Per §II,
// Select is defined through Restrict and therefore updates t(i): the origin
// of the operand attribute is added to every cell's intermediate set. The
// constant is compared exactly (no instance resolution), matching Table 4's
// DEG = "MBA".
func (a *Algebra) Select(p *Relation, x string, theta rel.Theta, constant rel.Value) (*Relation, error) {
	return drained(a.StreamSelect(CursorOf(p), x, theta, constant))
}

// Union implements the Union primitive over two union-compatible relations:
// tuples present (by data portion) in only one operand pass through; tuples
// present in both are emitted once with both operands' tags unioned cell by
// cell.
func (a *Algebra) Union(p1, p2 *Relation) (*Relation, error) {
	return drained(a.StreamUnion(CursorOf(p1), CursorOf(p2)))
}

// Difference implements the Difference primitive p1 − p2: the tuples of p1
// whose data portion does not occur in p2, with p2(o) — the union of all
// origin sets in p2 — added to every cell's intermediate set, because every
// p1 tuple had to be compared against all of p2 to be selected.
func (a *Algebra) Difference(p1, p2 *Relation) (*Relation, error) {
	return drained(a.StreamDifference(CursorOf(p1), CursorOf(p2)))
}

// Intersect implements the derived Intersection operator, defined in §II as
// "the project of a join over all the attributes in each of the relations".
// Data-identical tuples of both operands survive; since the join mediates on
// every attribute, the origins of both operands' cells join the intermediate
// sets.
func (a *Algebra) Intersect(p1, p2 *Relation) (*Relation, error) {
	return drained(a.StreamIntersect(CursorOf(p1), CursorOf(p2)))
}

// Rename returns p with column old renamed to new and annotated as polygen
// attribute new — the "mapping of the local attribute STATE into the polygen
// attribute HEADQUARTERS" step of Appendix A.
func (a *Algebra) Rename(p *Relation, old, new string) (*Relation, error) {
	ci, err := p.Col(old)
	if err != nil {
		return nil, err
	}
	out := p.Clone()
	out.Attrs[ci] = Attr{Name: new, Polygen: new}
	return out, nil
}
