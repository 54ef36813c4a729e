package core

import (
	"repro/internal/identity"
	"repro/internal/rel"
)

// Join implements the derived Join operator p1[x θ y]p2. Per §II, Join is
// "defined as the restriction of a Cartesian product". When the two join
// attributes denote the same polygen attribute — a natural join, as in the
// worked example's [AID# = AID#] and [ONAME = ONAME] — the example
// additionally shows the two join columns collapsed into a single column
// (Table 5 carries one AID#, Table 7 one ONAME), i.e. a Coalesce of the join
// attributes follows the restriction:
//
//	Coalesce( Restrict( p1 × p2, x θ y ), x © y : w )
//
// A θ-join between distinct attributes (the §I query's [CEO = ANAME]) keeps
// both columns, exactly the restriction of the product — Table 7 carries
// both CEO and ANAME. JoinViaPrimitives evaluates the literal primitive
// composition; Join itself is the hash-join fast path for θ = "=", falling
// back to the composition for other θ. A property-based test asserts the two
// agree.
func (a *Algebra) Join(p1 *Relation, x string, theta rel.Theta, p2 *Relation, y string) (*Relation, error) {
	return drained(a.StreamJoin(CursorOf(p1), x, theta, CursorOf(p2), y))
}

// keyIndex is the build side of the equi-join, OuterJoin and Merge: it
// buckets positions by the hash of their key's canonical value under the
// algebra's resolver (identity.Resolver.Canon) through the shared
// rel.BucketIndex, and confirms candidates with Identical — the mechanism
// duplicate elimination applies to the value itself. Null keys match
// nothing, so callers never add or look them up.
type keyIndex struct {
	rel.BucketIndex
	res   identity.Resolver
	canon []rel.Value // canonical key of each added position
}

// newKeyIndex returns an index for positions 0..n-1.
func newKeyIndex(res identity.Resolver, n int) keyIndex {
	return keyIndex{BucketIndex: rel.NewBucketIndex(n), res: res, canon: make([]rel.Value, n)}
}

// buildKeyIndex indexes every tuple by its non-null yi cell.
func buildKeyIndex(res identity.Resolver, tuples []Tuple, yi int) keyIndex {
	ix := newKeyIndex(res, len(tuples))
	for i, t := range tuples {
		if d := t[yi].D; !d.IsNull() {
			ix.canon[i] = res.Canon(d)
			ix.Add(ix.canon[i].Hash64(rel.Seed), i)
		}
	}
	return ix
}

// lookup appends to buf, in build order, the positions whose key denotes
// the same instance as v.
func (ix keyIndex) lookup(v rel.Value, buf []int32) []int32 {
	c := ix.res.Canon(v)
	ix.ForEach(c.Hash64(rel.Seed), func(pos int) bool {
		if ix.canon[pos].Identical(c) {
			buf = append(buf, int32(pos))
		}
		return true
	})
	return buf
}

// intern returns the position whose key denotes the same instance as v,
// adding v's canonical value at pos when there is none.
func (ix keyIndex) intern(v rel.Value, pos int) int {
	c := ix.res.Canon(v)
	h := c.Hash64(rel.Seed)
	if at, ok := ix.Find(h, func(at int) bool { return ix.canon[at].Identical(c) }); ok {
		return at
	}
	ix.canon[pos] = c
	ix.Add(h, pos)
	return pos
}

// joinCoalesces reports whether a join on the two attributes is natural
// (same polygen attribute, or same display name when unannotated) and its
// join columns therefore coalesce.
func joinCoalesces(x, y Attr) bool {
	if x.Polygen != "" || y.Polygen != "" {
		return x.Polygen == y.Polygen
	}
	return x.Name == y.Name
}

// joinAttrs computes the output attribute list of a join: the left
// attributes (with x replaced by the coalesced column when coalescing)
// followed by the right attributes (minus y when coalescing), disambiguated
// against the left names. It operates on bare attribute lists, so the
// streaming join and plan simulation (JoinLayout) share it.
func joinAttrs(attrs1 []Attr, xi int, name2 string, attrs2 []Attr, yi int, coalesce bool) []Attr {
	xAttr, yAttr := attrs1[xi], attrs2[yi]
	attrs := make([]Attr, 0, len(attrs1)+len(attrs2))
	attrs = append(attrs, attrs1...)
	if coalesce {
		coalesced := Attr{Name: xAttr.Name, Polygen: xAttr.Polygen}
		if xAttr.Polygen != "" && xAttr.Polygen == yAttr.Polygen {
			coalesced.Name = xAttr.Polygen
		}
		attrs[xi] = coalesced
	}
	for i, at := range attrs2 {
		if coalesce && i == yi {
			continue
		}
		name := at.Name
		if hasAttrName(attrs, name) {
			name = disambiguateName(attrs, name2, at.Name)
		}
		attrs = append(attrs, Attr{Name: name, Polygen: at.Polygen})
	}
	return attrs
}

// ResolveAttrIn resolves an attribute reference against a bare attribute
// list, with the same display-name-then-polygen-name rules as Relation.Col.
// The plan optimizer uses it to simulate column resolution without
// materializing relations.
func ResolveAttrIn(relName string, attrs []Attr, name string) (int, error) {
	return colIn(relName, attrs, name)
}

// JoinLayout returns the output attribute list a join of two inputs with the
// given attribute lists would produce, and whether its join columns
// coalesce. It is joinAttrs exposed for plan simulation: the optimizer
// replays candidate join orders over attribute lists alone and aborts any
// rewrite whose simulated layout diverges from the original's.
func JoinLayout(attrs1 []Attr, xi int, name2 string, attrs2 []Attr, yi int) ([]Attr, bool) {
	coalesce := joinCoalesces(attrs1[xi], attrs2[yi])
	return joinAttrs(attrs1, xi, name2, attrs2, yi, coalesce), coalesce
}

// joinRow builds one joined tuple, sliced from out's arena: every cell gains
// the join attributes' origins in its intermediate set (the Restrict step)
// and, for natural joins, the two join cells coalesce (the Coalesce step,
// equal-data case: union both tag sets).
func (a *Algebra) joinRow(out *Relation, t1 Tuple, xi int, t2 Tuple, yi int, coalesce bool) Tuple {
	mediators := t1[xi].O.Union(t2[yi].O)
	n := len(t1) + len(t2)
	if coalesce {
		n--
	}
	row := out.NewRow(n)[:0]
	for i, c := range t1 {
		if coalesce && i == xi {
			joined := Cell{
				D: t1[xi].D,
				O: t1[xi].O.Union(t2[yi].O),
				I: t1[xi].I.Union(t2[yi].I),
			}
			row = append(row, joined.WithIntermediate(mediators))
			continue
		}
		row = append(row, c.WithIntermediate(mediators))
	}
	for i, c := range t2 {
		if coalesce && i == yi {
			continue
		}
		row = append(row, c.WithIntermediate(mediators))
	}
	return row
}

// JoinViaPrimitives evaluates the join as the literal composition of the
// primitives: Cartesian product, then Restrict, then — for natural joins —
// Coalesce of the join columns. It is the reference semantics for Join and
// the general-θ path.
func (a *Algebra) JoinViaPrimitives(p1 *Relation, x string, theta rel.Theta, p2 *Relation, y string) (*Relation, error) {
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	prod, err := a.Product(p1, p2)
	if err != nil {
		return nil, err
	}
	// Locate the two operand columns in the product by position: p1's
	// columns come first, then p2's (possibly renamed by disambiguation).
	xName := prod.Attrs[xi].Name
	yName := prod.Attrs[len(p1.Attrs)+yi].Name
	restricted, err := a.Restrict(prod, xName, theta, yName)
	if err != nil {
		return nil, err
	}
	coalesce := joinCoalesces(p1.Attrs[xi], p2.Attrs[yi])
	wanted := joinAttrs(p1.Attrs, xi, p2.Name, p2.Attrs, yi, coalesce)
	if !coalesce {
		out := restricted
		if len(out.Attrs) == len(wanted) {
			out.Attrs = wanted
		}
		return out, nil
	}
	w := wanted[xi].Name
	out, err := a.Coalesce(restricted, xName, yName, w)
	if err != nil {
		return nil, err
	}
	// Coalesce keeps x's position and drops y's column, which reproduces the
	// join layout; restore the polygen annotations computed by joinAttrs.
	if len(out.Attrs) == len(wanted) {
		out.Attrs = wanted
	}
	return out, nil
}

// SemiJoin returns the tuples of p1 with a θ-match in p2 on x θ y, keeping
// only p1's columns. It is Project(Join(...), attrs(p1)) and is the
// algebraic reading of an IN-subquery; tags follow from that composition
// (match origins join the intermediate sets).
func (a *Algebra) SemiJoin(p1 *Relation, x string, theta rel.Theta, p2 *Relation, y string) (*Relation, error) {
	joined, err := a.Join(p1, x, theta, p2, y)
	if err != nil {
		return nil, err
	}
	// p1's columns occupy the first len(p1.Attrs) positions in every join
	// layout; project them back out by position.
	names := make([]string, len(p1.Attrs))
	for i := range p1.Attrs {
		names[i] = joined.Attrs[i].Name
	}
	out, err := a.Project(joined, names)
	if err != nil {
		return nil, err
	}
	out.Attrs = append([]Attr(nil), p1.Attrs...)
	return out, nil
}
