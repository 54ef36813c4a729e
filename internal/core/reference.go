package core

import (
	"fmt"

	"repro/internal/rel"
)

// This file preserves the string-keyed implementations the polygen algebra
// shipped with before the hash-native engine: tuple identity as a
// concatenated string key (Tuple.DataKey), join probes as canonical strings
// (Resolver.Canonical), and one make per output row. They are the reference
// semantics — the property suite asserts the hash-keyed operators agree with
// them cell for cell (data and both tag sets). They are not used on any
// query path.

// sameRef is same() over canonical strings instead of interned IDs.
func (a *Algebra) sameRef(x, y rel.Value) bool {
	if x.IsNull() || y.IsNull() {
		return false
	}
	return a.Resolver().Canonical(x) == a.Resolver().Canonical(y)
}

// RefProject is the string-keyed reference implementation of Project.
func (a *Algebra) RefProject(p *Relation, attrs []string) (*Relation, error) {
	idx := make([]int, len(attrs))
	outAttrs := make([]Attr, len(attrs))
	for i, name := range attrs {
		ci, err := p.Col(name)
		if err != nil {
			return nil, err
		}
		idx[i] = ci
		outAttrs[i] = p.Attrs[ci]
	}
	out := NewRelation("", p.Reg, outAttrs...)
	pos := make(map[string]int, len(p.Tuples))
	for _, t := range p.Tuples {
		proj := make(Tuple, len(idx))
		for i, ci := range idx {
			proj[i] = t[ci]
		}
		k := proj.DataKey()
		if at, dup := pos[k]; dup {
			existing := out.Tuples[at]
			for i := range existing {
				existing[i] = existing[i].MergeTags(proj[i])
			}
			continue
		}
		pos[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, proj)
	}
	return out, nil
}

// RefUnion is the string-keyed reference implementation of Union.
func (a *Algebra) RefUnion(p1, p2 *Relation) (*Relation, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: union of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	out := NewRelation("", p1.Reg, p1.Attrs...)
	pos := make(map[string]int, len(p1.Tuples)+len(p2.Tuples))
	for _, src := range [...]*Relation{p1, p2} {
		for _, t := range src.Tuples {
			k := t.DataKey()
			if at, dup := pos[k]; dup {
				existing := out.Tuples[at]
				for i := range existing {
					existing[i] = existing[i].MergeTags(t[i])
				}
				continue
			}
			pos[k] = len(out.Tuples)
			out.Tuples = append(out.Tuples, append(Tuple(nil), t...))
		}
	}
	return out, nil
}

// RefDifference is the string-keyed reference implementation of Difference.
func (a *Algebra) RefDifference(p1, p2 *Relation) (*Relation, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: difference of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	drop := make(map[string]struct{}, len(p2.Tuples))
	for _, t := range p2.Tuples {
		drop[t.DataKey()] = struct{}{}
	}
	p2o := p2.OriginUnion()
	out := NewRelation("", p1.Reg, p1.Attrs...)
	seen := make(map[string]struct{}, len(p1.Tuples))
	for _, t := range p1.Tuples {
		k := t.DataKey()
		if _, gone := drop[k]; gone {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		row := make(Tuple, len(t))
		for i, c := range t {
			row[i] = c.WithIntermediate(p2o)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// RefIntersect is the string-keyed reference implementation of Intersect.
func (a *Algebra) RefIntersect(p1, p2 *Relation) (*Relation, error) {
	if p1.Degree() != p2.Degree() {
		return nil, fmt.Errorf("core: intersect of degree %d with degree %d", p1.Degree(), p2.Degree())
	}
	index := make(map[string][]Tuple, len(p2.Tuples))
	for _, t := range p2.Tuples {
		k := t.DataKey()
		index[k] = append(index[k], t)
	}
	out := NewRelation("", p1.Reg, p1.Attrs...)
	pos := make(map[string]int, len(p1.Tuples))
	for _, t := range p1.Tuples {
		k := t.DataKey()
		matches, ok := index[k]
		if !ok {
			continue
		}
		row := make(Tuple, len(t))
		copy(row, t)
		for _, m := range matches {
			mediators := t.OriginUnion().Union(m.OriginUnion())
			for i := range row {
				row[i] = row[i].MergeTags(m[i]).WithIntermediate(mediators)
			}
		}
		if at, dup := pos[k]; dup {
			existing := out.Tuples[at]
			for i := range existing {
				existing[i] = existing[i].MergeTags(row[i])
			}
			continue
		}
		pos[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// refJoinRow is joinRow without the arena: one make per output row.
func (a *Algebra) refJoinRow(t1 Tuple, xi int, t2 Tuple, yi int, coalesce bool) Tuple {
	mediators := t1[xi].O.Union(t2[yi].O)
	row := make(Tuple, 0, len(t1)+len(t2))
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

// RefJoin is the string-keyed reference implementation of the equi-Join fast
// path: the hash index is keyed by canonical strings, allocated per probe.
func (a *Algebra) RefJoin(p1 *Relation, x string, theta rel.Theta, p2 *Relation, y string) (*Relation, error) {
	if theta != rel.ThetaEQ {
		return a.JoinViaPrimitives(p1, x, theta, p2, y)
	}
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	coalesce := joinCoalesces(p1.Attrs[xi], p2.Attrs[yi])
	attrs := joinAttrs(p1.Attrs, xi, p2.Name, p2.Attrs, yi, coalesce)
	out := NewRelation("", p1.Reg, attrs...)

	index := make(map[string][]Tuple, len(p2.Tuples))
	for _, t2 := range p2.Tuples {
		if t2[yi].D.IsNull() {
			continue
		}
		k := a.Resolver().Canonical(t2[yi].D)
		index[k] = append(index[k], t2)
	}
	for _, t1 := range p1.Tuples {
		if t1[xi].D.IsNull() {
			continue
		}
		for _, t2 := range index[a.Resolver().Canonical(t1[xi].D)] {
			out.Tuples = append(out.Tuples, a.refJoinRow(t1, xi, t2, yi, coalesce))
		}
	}
	return out, nil
}

// RefOuterJoin is the string-keyed reference implementation of OuterJoin.
func (a *Algebra) RefOuterJoin(p1 *Relation, x string, p2 *Relation, y string) (*Relation, error) {
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	attrs := append([]Attr(nil), p1.Attrs...)
	for _, at := range p2.Attrs {
		name := at.Name
		if hasAttrName(attrs, name) {
			name = disambiguateName(attrs, p2.Name, at.Name)
		}
		attrs = append(attrs, Attr{Name: name, Polygen: at.Polygen})
	}
	out := NewRelation("", p1.Reg, attrs...)

	index := make(map[string][]int, len(p2.Tuples))
	for i, t2 := range p2.Tuples {
		if t2[yi].D.IsNull() {
			continue
		}
		k := a.Resolver().Canonical(t2[yi].D)
		index[k] = append(index[k], i)
	}
	matched2 := make([]bool, len(p2.Tuples))
	for _, t1 := range p1.Tuples {
		var matches []int
		if !t1[xi].D.IsNull() {
			matches = index[a.Resolver().Canonical(t1[xi].D)]
		}
		if len(matches) == 0 {
			med := t1[xi].O
			row := make(Tuple, 0, len(attrs))
			for _, c := range t1 {
				row = append(row, c.WithIntermediate(med))
			}
			for range p2.Attrs {
				row = append(row, NilCell(med))
			}
			out.Tuples = append(out.Tuples, row)
			continue
		}
		for _, mi := range matches {
			matched2[mi] = true
			t2 := p2.Tuples[mi]
			med := t1[xi].O.Union(t2[yi].O)
			row := make(Tuple, 0, len(attrs))
			for _, c := range t1 {
				row = append(row, c.WithIntermediate(med))
			}
			for _, c := range t2 {
				row = append(row, c.WithIntermediate(med))
			}
			out.Tuples = append(out.Tuples, row)
		}
	}
	for i, t2 := range p2.Tuples {
		if matched2[i] {
			continue
		}
		med := t2[yi].O
		row := make(Tuple, 0, len(attrs))
		for range p1.Attrs {
			row = append(row, NilCell(med))
		}
		for _, c := range t2 {
			row = append(row, c.WithIntermediate(med))
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// RefCoalesce is Coalesce with instance equality via canonical strings.
func (a *Algebra) RefCoalesce(p *Relation, x, y, w string) (*Relation, error) {
	xi, yi, out, err := coalesceOutput(p, x, y, w)
	if err != nil {
		return nil, err
	}
	for _, t := range p.Tuples {
		cx, cy := t[xi], t[yi]
		var cw Cell
		switch {
		case cy.D.IsNull():
			cw = cx
		case cx.D.IsNull():
			cw = cy
		case a.sameRef(cx.D, cy.D):
			cw = Cell{D: cx.D, O: cx.O.Union(cy.O), I: cx.I.Union(cy.I)}
		default:
			cw = a.resolveConflict(cx, cy)
		}
		row := make(Tuple, 0, len(t)-1)
		for i, c := range t {
			switch i {
			case xi:
				row = append(row, cw)
			case yi:
				// dropped
			default:
				row = append(row, c)
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// RefOuterNaturalTotalJoin is OuterNaturalTotalJoin over the string-keyed
// reference operators.
func (a *Algebra) RefOuterNaturalTotalJoin(p1, p2 *Relation, scheme *Scheme) (*Relation, error) {
	x, err := colByPolygen(p1, scheme.Key)
	if err != nil {
		return nil, fmt.Errorf("core: ONTJ left operand: %w", err)
	}
	y, err := colByPolygen(p2, scheme.Key)
	if err != nil {
		return nil, fmt.Errorf("core: ONTJ right operand: %w", err)
	}
	oj, err := a.RefOuterJoin(p1, p1.Attrs[x].Name, p2, p2.Attrs[y].Name)
	if err != nil {
		return nil, err
	}
	xName := oj.Attrs[x].Name
	yName := oj.Attrs[len(p1.Attrs)+y].Name
	cur, err := a.RefCoalesce(oj, xName, yName, scheme.Key)
	if err != nil {
		return nil, err
	}
	for _, pa := range scheme.Attrs {
		if pa.Name == scheme.Key {
			continue
		}
		cols := colsByPolygen(cur.Attrs, pa.Name)
		switch len(cols) {
		case 0:
		case 1:
			if cur.Attrs[cols[0]].Name != pa.Name {
				cur, err = a.Rename(cur, cur.Attrs[cols[0]].Name, pa.Name)
				if err != nil {
					return nil, err
				}
			}
		case 2:
			cur, err = a.RefCoalesce(cur, cur.Attrs[cols[0]].Name, cur.Attrs[cols[1]].Name, pa.Name)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: ONTJ: polygen attribute %q appears in %d columns", pa.Name, len(cols))
		}
	}
	return cur, nil
}

// RefMerge is Merge (the paper's left fold) over the string-keyed reference
// operators.
func (a *Algebra) RefMerge(scheme *Scheme, rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("core: merge of zero relations for scheme %q", scheme.Name)
	}
	if len(rels) == 1 {
		return a.normalizeToScheme(rels[0], scheme)
	}
	cur := rels[0]
	var err error
	for _, next := range rels[1:] {
		cur, err = a.RefOuterNaturalTotalJoin(cur, next, scheme)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}
