// Package relalg implements the classical (untagged) relational algebra over
// rel.Relation values: Select, Restrict, Project, Union and Difference.
//
// It serves two roles in the reproduction:
//
//   - it is the execution engine inside each Local Query Processor, which the
//     paper requires to "behave as a local relational system" (§I); and
//   - it is the untagged oracle the polygen algebra's tests compare data
//     against: a polygen operator's data part must equal the classical
//     operator's answer on the untagged inputs.
//
// Tuple identity is a 64-bit hash (rel.Tuple.Hash64) confirmed with
// Identical on collision, and output rows are sliced from the relation's
// arena.
package relalg

import (
	"fmt"

	"repro/internal/rel"
)

// tupleIndex buckets tuple positions through the shared rel.BucketIndex,
// confirming candidates with Identical — the untagged counterpart of core's
// dataIndex.
type tupleIndex struct {
	rel.BucketIndex
}

func newTupleIndex(capacity int) tupleIndex {
	return tupleIndex{rel.NewBucketIndex(capacity)}
}

func (ix tupleIndex) find(tuples []rel.Tuple, t rel.Tuple, h uint64) (int, bool) {
	return ix.Find(h, func(at int) bool { return tuples[at].Identical(t) })
}

func (ix tupleIndex) add(h uint64, pos int) { ix.Add(h, pos) }

// Select returns the tuples of r for which attr θ constant holds.
func Select(r *rel.Relation, attr string, theta rel.Theta, constant rel.Value) (*rel.Relation, error) {
	ci, err := r.Col(attr)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation("", r.Schema)
	for _, t := range r.Tuples {
		if theta.Eval(t[ci], constant) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// Restrict returns the tuples of r for which x θ y holds between two of r's
// attributes.
func Restrict(r *rel.Relation, x string, theta rel.Theta, y string) (*rel.Relation, error) {
	xi, err := r.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := r.Col(y)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation("", r.Schema)
	for _, t := range r.Tuples {
		if theta.Eval(t[xi], t[yi]) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// Project returns r restricted to the named attributes, with duplicate
// tuples eliminated (set semantics).
func Project(r *rel.Relation, attrs []string) (*rel.Relation, error) {
	idx := make([]int, len(attrs))
	outAttrs := make([]rel.Attr, len(attrs))
	for i, a := range attrs {
		ci, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		idx[i] = ci
		outAttrs[i] = r.Schema.Attr(ci)
	}
	out := rel.NewRelation("", rel.NewSchema(outAttrs...))
	seen := newTupleIndex(len(r.Tuples))
	scratch := make(rel.Tuple, len(idx))
	for _, t := range r.Tuples {
		for i, ci := range idx {
			scratch[i] = t[ci]
		}
		h := scratch.Hash64(rel.Seed)
		if _, dup := seen.find(out.Tuples, scratch, h); dup {
			continue
		}
		row := out.NewRow(len(scratch))
		copy(row, scratch)
		seen.add(h, len(out.Tuples))
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// Union returns the set union of two union-compatible relations.
func Union(a, b *rel.Relation) (*rel.Relation, error) {
	if a.Degree() != b.Degree() {
		return nil, fmt.Errorf("relalg: union of degree %d with degree %d", a.Degree(), b.Degree())
	}
	out := rel.NewRelation("", a.Schema)
	seen := newTupleIndex(len(a.Tuples) + len(b.Tuples))
	for _, src := range [...]*rel.Relation{a, b} {
		for _, t := range src.Tuples {
			h := t.Hash64(rel.Seed)
			if _, dup := seen.find(out.Tuples, t, h); dup {
				continue
			}
			seen.add(h, len(out.Tuples))
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// Difference returns the tuples of a not present in b.
func Difference(a, b *rel.Relation) (*rel.Relation, error) {
	if a.Degree() != b.Degree() {
		return nil, fmt.Errorf("relalg: difference of degree %d with degree %d", a.Degree(), b.Degree())
	}
	drop := newTupleIndex(len(b.Tuples))
	for i, t := range b.Tuples {
		drop.add(t.Hash64(rel.Seed), i)
	}
	out := rel.NewRelation("", a.Schema)
	seen := newTupleIndex(len(a.Tuples))
	for _, t := range a.Tuples {
		h := t.Hash64(rel.Seed)
		if _, gone := drop.find(b.Tuples, t, h); gone {
			continue
		}
		if _, dup := seen.find(out.Tuples, t, h); dup {
			continue
		}
		seen.add(h, len(out.Tuples))
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}
