package core

import (
	"fmt"
)

// ConflictHandler resolves a Coalesce between two non-nil, non-matching data
// values — a data conflict between sources, which the paper's assumptions
// rule out of the worked example but which real federations exhibit (§V
// names data conflict resolution as the research the polygen model founds).
// It returns the coalesced cell.
type ConflictHandler func(x, y Cell) Cell

// SetConflictHandler installs h for subsequent Coalesce operations. A nil h
// restores the default policy: keep x's datum and origin, and fold y's
// origin and intermediates into the intermediate set (y's source was
// consulted, but did not originate the surviving datum).
func (a *Algebra) SetConflictHandler(h ConflictHandler) { a.conflict = h }

func (a *Algebra) resolveConflict(x, y Cell) Cell {
	if a.conflict != nil {
		return a.conflict(x, y)
	}
	return Cell{D: x.D, O: x.O, I: x.I.Union(y.I).Union(y.O)}
}

// Coalesce implements the sixth orthogonal primitive p[x © y : w]: the two
// columns x and y collapse into one column w placed at x's position. Per
// §II, for each tuple:
//
//   - if t[x](d) = t[y](d): the datum is kept once with both origin sets and
//     both intermediate sets unioned;
//   - if t[y](d) = nil: x's cell passes through;
//   - if t[x](d) = nil: y's cell passes through.
//
// Data equality is instance equality under the algebra's resolver (Appendix
// A coalesces "CitiCorp" with "Citicorp"); on equal instances the left datum
// is kept, matching Table A5. Conflicting non-nil data — undefined in the
// paper — go through the ConflictHandler.
func (a *Algebra) Coalesce(p *Relation, x, y, w string) (*Relation, error) {
	xi, yi, out, err := coalesceOutput(p, x, y, w)
	if err != nil {
		return nil, err
	}
	for _, t := range p.Tuples {
		cw := a.coalesceCell(t[xi], t[yi])
		row := out.NewRow(len(t) - 1)[:0]
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

// coalesceOutput resolves Coalesce's columns x and y in p and returns the
// empty result: p's attributes with x's renamed to w and y's dropped.
func coalesceOutput(p *Relation, x, y, w string) (xi, yi int, out *Relation, err error) {
	if xi, err = p.Col(x); err != nil {
		return
	}
	if yi, err = p.Col(y); err != nil {
		return
	}
	if xi == yi {
		return 0, 0, nil, fmt.Errorf("core: coalesce of attribute %q with itself", x)
	}
	attrs := make([]Attr, 0, len(p.Attrs)-1)
	for i, at := range p.Attrs {
		switch i {
		case xi:
			pg := at.Polygen
			if pg == "" {
				pg = p.Attrs[yi].Polygen
			}
			attrs = append(attrs, Attr{Name: w, Polygen: pg})
		case yi:
			// dropped
		default:
			attrs = append(attrs, at)
		}
	}
	return xi, yi, NewRelation("", p.Reg, attrs...), nil
}

// coalesceCell is Coalesce's rule for one tuple's pair of cells.
func (a *Algebra) coalesceCell(cx, cy Cell) Cell {
	switch {
	case cy.D.IsNull():
		return cx
	case cx.D.IsNull():
		return cy
	case a.same(cx.D, cy.D):
		return Cell{D: cx.D, O: cx.O.Union(cy.O), I: cx.I.Union(cy.I)}
	default:
		return a.resolveConflict(cx, cy)
	}
}

// OuterJoin computes the full outer equi-join of p1 and p2 on x = y (instance
// equality). Matched tuple pairs concatenate with the join attributes'
// origins added to every cell's intermediate set, exactly as Restrict does;
// an unmatched tuple is padded with nil cells carrying an empty origin set
// and the intermediate sets contributed by its own join attribute's origin
// (Table A4's "nil, {}, {AD}" cells).
func (a *Algebra) OuterJoin(p1 *Relation, x string, p2 *Relation, y string) (*Relation, error) {
	xi, err := p1.Col(x)
	if err != nil {
		return nil, err
	}
	yi, err := p2.Col(y)
	if err != nil {
		return nil, err
	}
	attrs := productAttrs(p1.Attrs, p2.Name, p2.Attrs)
	out := NewRelation("", p1.Reg, attrs...)

	// Probe by canonical key over position buckets, as Join does.
	index := buildKeyIndex(a.Resolver(), p2.Tuples, yi)
	matched2 := make([]bool, len(p2.Tuples))
	var matches []int32
	for _, t1 := range p1.Tuples {
		matches = matches[:0]
		if !t1[xi].D.IsNull() {
			matches = index.lookup(t1[xi].D, matches)
		}
		if len(matches) == 0 {
			// Unmatched left tuple: right side nil-padded; only the left
			// join attribute mediates.
			med := t1[xi].O
			row := out.NewRow(len(attrs))[:0]
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
			row := out.NewRow(len(attrs))[:0]
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
		row := out.NewRow(len(attrs))[:0]
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

func colByPolygen(p *Relation, pa string) (int, error) {
	cols := colsByPolygen(p.Attrs, pa)
	switch len(cols) {
	case 1:
		return cols[0], nil
	case 0:
		return 0, fmt.Errorf("no column maps to polygen attribute %q in %s", pa, p.describe())
	default:
		return 0, fmt.Errorf("polygen attribute %q is ambiguous in %s", pa, p.describe())
	}
}

func colsByPolygen(attrs []Attr, pa string) []int {
	var out []int
	for i, at := range attrs {
		if at.Polygen == pa {
			out = append(out, i)
		}
	}
	return out
}

// Merge extends the Outer Natural Total Join to any number of polygen
// relations of one scheme (§II): the left fold of ONTJ over rels, computed
// in one keyed pass. The outer join on the key never lets rows with
// different canonical keys interact, so a hash table keeps each key's
// rows and every fragment's step is replayed on them in place; a step that
// lacks the key is applied when the key is next met. A single operand only
// has its columns renamed to their polygen attributes.
func (a *Algebra) Merge(scheme *Scheme, rels ...*Relation) (*Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("core: merge of zero relations for scheme %q", scheme.Name)
	}
	m, err := newMerger(a, scheme, rels)
	if err != nil {
		return nil, err
	}
	if len(rels) == 1 {
		return a.normalizeToScheme(rels[0], scheme)
	}
	total := 0
	for _, p := range rels {
		total += len(p.Tuples)
	}
	m.groups, m.first = make([]mergeGroup, 0, total), make([]Tuple, total)
	keys := newKeyIndex(a.Resolver(), total)
	next := make([]int32, total)
	var touched []int32
	for j, p := range rels {
		touched = touched[:0]
		for i, t := range p.Tuples {
			g := int32(len(m.groups))
			if k := t[m.key[j]].D; !k.IsNull() {
				g = int32(keys.intern(k, int(g)))
			}
			if int(g) == len(m.groups) {
				// A new key starts as one all-nil row.
				m.first[g] = m.out.NewRow(len(m.out.Attrs))
				m.groups = append(m.groups, mergeGroup{rows: m.first[g : g+1 : g+1], done: int32(j - 1), head: -1})
			}
			grp := &m.groups[g]
			if grp.head < 0 {
				grp.head = int32(i)
				touched = append(touched, g)
			} else {
				next[grp.tail] = int32(i)
			}
			grp.tail, next[i] = int32(i), -1
		}
		for _, g := range touched {
			m.join(&m.groups[g], j, p.Tuples, next)
		}
	}
	m.out.Tuples = make([]Tuple, 0, len(m.groups))
	for g := range m.groups {
		m.catchUp(&m.groups[g], len(rels))
		m.out.Tuples = append(m.out.Tuples, m.groups[g].rows...)
	}
	return m.out, nil
}

// merger is one Merge: where fragments' keys and columns land in the output
// row, and a group per key (per row for a null key, which never matches).
type merger struct {
	a      *Algebra
	out    *Relation
	key    []int   // each fragment's key column
	cols   [][]int // each fragment column's output column
	width  []int   // output columns before each fragment, then in all
	groups []mergeGroup
	first  []Tuple // backs each group's first row
}

// mergeGroup holds the fold's rows for one key after fragments 0..done;
// head..tail chain, through next, the current fragment's rows of the key.
type mergeGroup struct {
	rows             []Tuple
	done, head, tail int32
}

// newMerger lays out the output as the fold does: fragment 0's columns,
// then each later fragment's columns whose scheme attribute is new, named
// as productAttrs names them with scheme columns renamed to the attribute.
// It rejects an operand carrying one scheme attribute twice.
func newMerger(a *Algebra, scheme *Scheme, rels []*Relation) (*merger, error) {
	inScheme := func(pa string) bool {
		_, ok := scheme.Attr(pa)
		return pa != "" && (ok || pa == scheme.Key)
	}
	m := &merger{a: a, key: make([]int, len(rels)), cols: make([][]int, len(rels)), width: make([]int, len(rels)+1)}
	var cur []Attr
	for j, p := range rels {
		m.key[j] = -1
		for c, at := range p.Attrs {
			if inScheme(at.Polygen) && len(colsByPolygen(p.Attrs, at.Polygen)) > 1 {
				return nil, fmt.Errorf("core: merge for scheme %q: polygen attribute %q appears twice in %s", scheme.Name, at.Polygen, p.describe())
			} else if at.Polygen == scheme.Key {
				m.key[j] = c
			}
		}
		if m.key[j] < 0 && len(rels) > 1 {
			return nil, fmt.Errorf("core: merge for scheme %q: no column maps to key %q in %s", scheme.Name, scheme.Key, p.describe())
		}
		all := productAttrs(cur, p.Name, p.Attrs)
		m.cols[j] = make([]int, len(p.Attrs))
		n := len(cur)
		for c, at := range p.Attrs {
			if prev := colsByPolygen(cur, at.Polygen); len(prev) == 1 && inScheme(at.Polygen) {
				m.cols[j][c] = prev[0]
				continue
			}
			m.cols[j][c], all[n] = n, all[len(cur)+c]
			n++
		}
		cur = all[:n]
		for i, at := range cur {
			if j > 0 && inScheme(at.Polygen) {
				cur[i] = Attr{Name: at.Polygen, Polygen: at.Polygen}
			}
		}
		m.width[j+1] = n
	}
	m.out = NewRelation("", rels[0].Reg, cur...)
	return m, nil
}

// join replays fragment j's step on a group it has rows for: each row
// pairs with every one of them (a repeated key is a cross product).
func (m *merger) join(grp *mergeGroup, j int, frag []Tuple, next []int32) {
	m.catchUp(grp, j)
	for _, r := range grp.rows {
		for i := next[grp.head]; i >= 0; i = next[i] {
			nr := m.out.NewRow(len(r))
			copy(nr, r)
			m.extend(nr, frag[i], j)
			grp.rows = append(grp.rows, nr)
		}
		m.extend(r, frag[grp.head], j)
	}
	grp.done, grp.head = int32(j), -1
}

// extend joins fragment j's tuple f onto row r: both key origins mediate
// every cell, and f's cells coalesce into older columns or fill new ones.
func (m *merger) extend(r, f Tuple, j int) {
	if j == 0 {
		copy(r, f)
		return
	}
	med := r[m.key[0]].O.Union(f[m.key[j]].O)
	for oc := range r[:m.width[j]] {
		r[oc].I = r[oc].I.Union(med)
	}
	for c, oc := range m.cols[j] {
		cell := f[c].WithIntermediate(med)
		if oc < m.width[j] {
			cell = m.a.coalesceCell(r[oc], cell)
		}
		r[oc] = cell
	}
}

// catchUp replays on the group the fragments before j that lack its key:
// each adds the row's key origin to every cell's intermediate set.
func (m *merger) catchUp(grp *mergeGroup, j int) {
	if int(grp.done)+1 < j {
		for _, r := range grp.rows {
			med := r[m.key[0]].O
			for oc := range r[:m.width[j]] {
				r[oc].I = r[oc].I.Union(med)
			}
		}
	}
	grp.done = int32(j - 1)
}

// normalizeToScheme renames every polygen-annotated column of p to its
// polygen attribute name.
func (a *Algebra) normalizeToScheme(p *Relation, scheme *Scheme) (*Relation, error) {
	out := p.Clone()
	for i, at := range out.Attrs {
		if at.Polygen != "" && at.Name != at.Polygen {
			if _, ok := scheme.Attr(at.Polygen); ok {
				out.Attrs[i] = Attr{Name: at.Polygen, Polygen: at.Polygen}
			}
		}
	}
	return out, nil
}
