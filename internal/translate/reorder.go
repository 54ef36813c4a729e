package translate

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/stats"
)

// This file is the greedy join-reordering pass of the Query Optimizer: with
// per-LQP relation statistics available it rewrites left-deep chains of
// equi-joins so that the smallest estimated relations join first, keeping
// intermediate results — the rows the PQP must hash, probe and tag — small.
//
// Reordering a polygen join chain is subtle, because the polygen tag
// calculus is OPERATIONAL: a join adds the origins of its two operand
// columns to the intermediate set of every cell of every surviving row, so
// a leaf's cells only accumulate the mediator tags of joins executed after
// that leaf entered the composite. Permuting the chain therefore changes
// t(i) — the audit trail of which sources were consulted — even though the
// data and origin tags are provably order-independent. The pass honors
// that:
//
//   - in the default (strict) mode, a candidate order is accepted only when
//     the simulated per-column intermediate tags of the reordered chain
//     equal the original's exactly. Swapping the operands of the chain's
//     bottom join always qualifies (both of its leaves accumulate every
//     join's mediators in either orientation), which is how the pass picks
//     the cheaper hash-join build side; broader permutations qualify only
//     when the tag algebra happens to coincide.
//   - with Options.RelaxedJoinReorder set, the full greedy order is
//     accepted as long as data and origin tags are preserved; the
//     intermediate sets then record the reordered evaluation — a different
//     but internally consistent audit trail. The PQP leaves this off
//     unless polygend's -relaxed-reorder turns it on.
//
// Independent of tag handling, every candidate is verified structurally
// before rewriting — the pass SIMULATES original and candidate plans over
// attribute lists (leaf schemas from the statistics catalog, composite
// layouts from core.JoinLayout) and requires:
//
//   - identical coalesce partition: every output column merges exactly the
//     same set of leaf columns in both layouts (tag-set unions commute, and
//     with an exact instance resolver — Options.ExactResolver, required —
//     the coalesced datum is the same value regardless of operand order);
//   - identical resolution of every attribute referenced above the chain
//     (later selections, restrictions and the terminal projection), by
//     provenance, name and polygen annotation;
//   - no simulated layout needs join-column disambiguation (renamed
//     duplicate columns depend on runtime relation names the simulation
//     cannot know);
//   - the chain feeds, possibly through single-consumer PQP selections and
//     restrictions, a terminal Project, which pins the visible column order
//     in both layouts.
func reorderJoinChains(m *Matrix, opts Options) {
	// Rewrites shift row indices; rescan from scratch after each success.
	for rounds := 0; rounds < len(m.Rows); rounds++ {
		if !reorderOneChain(m, opts) {
			return
		}
	}
}

func reorderOneChain(m *Matrix, opts Options) bool {
	s := newPlanState(m)
	sim := newSimulator(m, s, opts)
	for i := range m.Rows {
		if !sim.eligibleJoin(m.Rows[i]) {
			continue
		}
		// Chain bottom: an eligible join whose left operand is not itself an
		// eligible single-consumer join.
		if pi, ok := s.producer[m.Rows[i].LHR.Reg]; ok &&
			sim.eligibleJoin(m.Rows[pi]) && s.consumers[m.Rows[i].LHR.Reg] == 1 {
			continue
		}
		if chain := collectChain(m, s, sim, i); chain != nil {
			if chain.reorder(m, opts) {
				return true
			}
		}
	}
	return false
}

// joinChain is one left-deep chain of eligible joins plus the validated
// tower of rows above it, ending in the terminal Project.
type joinChain struct {
	s     *planState
	sim   *simulator
	joins []int // row indexes, bottom-up
	// leaves[0] feeds the first join's LHR; leaves[i] (i >= 1) feeds join
	// i-1's RHR.
	leaves []int
	above  []int // row indexes from the chain top to the terminal Project
}

// eligibleJoin reports whether a row is a PQP equi-join over two registers.
func (sim *simulator) eligibleJoin(r Row) bool {
	return r.Op == OpJoin && r.EL == "PQP" && r.HasTheta && r.Theta == rel.ThetaEQ &&
		r.LHR.Kind == OpdReg && r.RHR.Kind == OpdReg &&
		len(r.LHA) == 1 && r.RHA.Kind == CmpAttr
}

// collectChain walks upward from the bottom join, then validates the tower
// above the chain top. It returns nil when the shape does not qualify.
func collectChain(m *Matrix, s *planState, sim *simulator, bottom int) *joinChain {
	c := &joinChain{s: s, sim: sim}
	c.joins = append(c.joins, bottom)
	c.leaves = append(c.leaves, 0) // placeholder for the bottom-left leaf, fixed below
	i := bottom
	for {
		row := m.Rows[i]
		ri, ok := s.producer[row.RHR.Reg]
		if !ok || s.consumers[row.RHR.Reg] != 1 {
			return nil
		}
		c.leaves = append(c.leaves, ri)
		// Extend upward while this join's register feeds exactly one
		// consumer that is itself an eligible join's LHR.
		if s.consumers[row.PR] != 1 {
			break
		}
		ni := consumerOf(m, row.PR)
		if ni < 0 || !sim.eligibleJoin(m.Rows[ni]) || m.Rows[ni].LHR.Reg != row.PR {
			break
		}
		c.joins = append(c.joins, ni)
		i = ni
	}
	// A single-join chain still qualifies: the bottom-operand swap picks the
	// cheaper hash-join build side.
	li, ok := s.producer[m.Rows[bottom].LHR.Reg]
	if !ok || s.consumers[m.Rows[bottom].LHR.Reg] != 1 {
		return nil
	}
	c.leaves[0] = li
	// Validate the tower above the top join: single-consumer PQP
	// selections/restrictions, terminated by a Project.
	reg := m.Rows[c.joins[len(c.joins)-1]].PR
	for {
		if c.s.consumers[reg] != 1 {
			return nil
		}
		ti := consumerOf(m, reg)
		if ti < 0 {
			return nil
		}
		t := m.Rows[ti]
		if t.EL != "PQP" || t.LHR.Kind != OpdReg || t.LHR.Reg != reg || t.RHR.Kind != OpdNone {
			return nil
		}
		c.above = append(c.above, ti)
		switch t.Op {
		case OpSelect, OpRestrict:
			reg = t.PR
			continue
		case OpProject:
			return c
		default:
			return nil
		}
	}
}

// consumerOf finds the single row consuming reg (-1 if none).
func consumerOf(m *Matrix, reg int) int {
	for i, row := range m.Rows {
		found := false
		forEachReg(row, func(r int) {
			if r == reg {
				found = true
			}
		})
		if found {
			return i
		}
	}
	return -1
}

// chainEdge is one join predicate of the original chain: x resolved against
// the left composite, y against the right-hand leaf. Equality predicates
// are symmetric, so candidates may use an edge in either orientation.
type chainEdge struct {
	xName, yName string
	leaf         int
}

// chainStep is one join of a rebuilt chain: attach leaf via
// composite[xName] = leaf[yName].
type chainStep struct {
	leaf         int
	xName, yName string
}

// leafInfo is the simulated shape of one chain leaf.
type leafInfo struct {
	attrs []core.Attr
	rows  float64
	// fullRows is the unfiltered cardinality of the leaf's base relation
	// and keyCol the index of its single-column primary key in attrs (-1
	// when unknown, composite, or projected away). Together they sharpen
	// the join-output estimate: a join whose predicate hits a primary key
	// yields |other side| × (rows / fullRows) instead of the independence
	// guess.
	fullRows float64
	keyCol   int
	// db and mediated describe the leaf's constant tag state when the leaf
	// is an LQP-resident row: every cell's origin is {db}, every cell's
	// intermediate set is {db} (mediated pushdown) or {} — which makes the
	// whole chain's tag algebra a compile-time constant per column. tagged
	// is false for other leaves (e.g. Merges), whose per-row origins the
	// simulation cannot know.
	db       string
	mediated bool
	tagged   bool
}

// reorder estimates, generates candidate orders, simulates, verifies, and
// rewrites. It reports whether the matrix changed.
func (c *joinChain) reorder(m *Matrix, opts Options) bool {
	n := len(c.leaves)
	leaves := make([]leafInfo, n)
	for i, li := range c.leaves {
		leaves[i].attrs = c.sim.attrsOf(li)
		if leaves[i].attrs == nil {
			return false
		}
		est, ok := c.sim.rowsOf(li)
		if !ok {
			return false
		}
		leaves[i].rows = est
		leaves[i].keyCol = -1
		row := m.Rows[li]
		if isLocalRow(row) {
			leaves[i].tagged = true
			leaves[i].db = row.EL
			for _, op := range row.Pushed {
				if op.Kind == lqp.OpSelect || op.Kind == lqp.OpRestrict {
					leaves[i].mediated = true
				}
			}
			if rs, ok := opts.Stats.Relation(row.EL, row.LHR.Name); ok {
				leaves[i].fullRows = float64(rs.Rows)
				if len(rs.Key) == 1 {
					for ci, at := range leaves[i].attrs {
						if at.Name == rs.Key[0] {
							leaves[i].keyCol = ci
						}
					}
				}
			}
		}
	}
	// Simulate the original chain, extracting the predicates.
	edges := make([]chainEdge, 0, n-1)
	comp := newComposite(leaves[0], 0)
	for ji, idx := range c.joins {
		row := m.Rows[idx]
		e := chainEdge{xName: row.LHA[0], yName: row.RHA.Attr, leaf: ji + 1}
		var ok bool
		comp, ok = comp.join(e.xName, leaves[e.leaf], e.leaf, e.yName)
		if !ok {
			return false
		}
		edges = append(edges, e)
	}
	orig := comp
	origSteps := make([]chainStep, len(edges))
	for i, e := range edges {
		origSteps[i] = chainStep{leaf: e.leaf, xName: e.xName, yName: e.yName}
	}
	origCost, ok := chainCost(0, origSteps, leaves)
	if !ok {
		return false
	}

	for _, cand := range c.candidates(leaves, edges, opts) {
		// Strict improvement stabilizes the pass: every accepted rewrite
		// lowers the deterministic cost estimate, so rescans terminate
		// instead of oscillating between equivalent orders.
		candCost, ok := chainCost(cand.start, cand.steps, leaves)
		if !ok || candCost >= origCost*0.99 {
			continue
		}
		newComp, ok := applySteps(cand.start, cand.steps, leaves)
		if !ok || !compositesEqual(orig, newComp) {
			continue
		}
		if !opts.RelaxedJoinReorder && !tagsEqual(orig, newComp) {
			continue
		}
		resolved := true
		for _, ti := range c.above {
			for _, name := range referencedNames(m.Rows[ti]) {
				if !sameResolution(orig, newComp, name) {
					resolved = false
				}
			}
		}
		if !resolved {
			continue
		}
		c.rewrite(m, cand.start, cand.steps)
		return true
	}
	return false
}

// candidate is one proposed chain order.
type candidate struct {
	start int
	steps []chainStep
}

// candidates proposes orders worth verifying, best first: the greedy
// smallest-first order, then the bottom-operand swap (which preserves the
// tag algebra by construction and picks the cheaper hash build side).
func (c *joinChain) candidates(leaves []leafInfo, edges []chainEdge, opts Options) []candidate {
	var out []candidate
	if g, ok := greedyOrder(leaves, edges); ok && !sameAsOriginal(g, edges) {
		out = append(out, g)
	}
	// Bottom swap: worthwhile when the bottom-left leaf is the smaller one —
	// core's hash join builds its index over the right operand.
	if len(edges) >= 1 && leaves[0].rows < leaves[1].rows {
		steps := make([]chainStep, 0, len(edges))
		steps = append(steps, chainStep{leaf: 0, xName: edges[0].yName, yName: edges[0].xName})
		for _, e := range edges[1:] {
			steps = append(steps, chainStep{leaf: e.leaf, xName: e.xName, yName: e.yName})
		}
		out = append(out, candidate{start: 1, steps: steps})
	}
	return out
}

// sameAsOriginal reports whether a candidate reproduces the original
// left-deep order.
func sameAsOriginal(cand candidate, edges []chainEdge) bool {
	if cand.start != 0 {
		return false
	}
	for i, st := range cand.steps {
		if st.leaf != edges[i].leaf || st.xName != edges[i].xName || st.yName != edges[i].yName {
			return false
		}
	}
	return true
}

// stepCost estimates one join step — 2×build + probe + output, the build
// side weighted because hashing costs more per row than probing — and the
// output cardinality that becomes the next probe side. A predicate hitting
// a single-column primary key (on either side, located through the
// composite's provenance) caps the output at |other side| × the keyed
// relation's filter selectivity; otherwise the independence guess applies.
func stepCost(comp composite, inter float64, st chainStep, leaves []leafInfo) (cost, out float64, ok bool) {
	leaf := leaves[st.leaf]
	xi, err := core.ResolveAttrIn("", comp.attrs, st.xName)
	if err != nil {
		return 0, 0, false
	}
	yi, err := core.ResolveAttrIn("", leaf.attrs, st.yName)
	if err != nil {
		return 0, 0, false
	}
	out = inter * leaf.rows * stats.DefaultFilterSelectivity
	if yi == leaf.keyCol && leaf.fullRows > 0 {
		out = min(out, inter*leaf.rows/leaf.fullRows)
	}
	if len(comp.prov[xi]) == 1 {
		for lc := range comp.prov[xi] {
			la := leaves[lc.leaf]
			if lc.col == la.keyCol && la.fullRows > 0 {
				out = min(out, inter*leaf.rows/la.fullRows)
			}
		}
	}
	return 2*leaf.rows + inter + out, out, true
}

// chainCost estimates a whole chain order. Deterministic in its inputs —
// the strict-improvement gate in reorder relies on that.
func chainCost(start int, steps []chainStep, leaves []leafInfo) (float64, bool) {
	comp := newComposite(leaves[start], start)
	inter := leaves[start].rows
	total := 0.0
	for _, st := range steps {
		cost, out, ok := stepCost(comp, inter, st, leaves)
		if !ok {
			return 0, false
		}
		comp, ok = comp.join(st.xName, leaves[st.leaf], st.leaf, st.yName)
		if !ok {
			return 0, false
		}
		total += cost
		inter = out
	}
	return total, true
}

// greedyOrder searches for a cheap order: for every possible start leaf it
// grows the chain by repeatedly attaching the resolvable step with the
// lowest estimated cost, and returns the best complete candidate.
func greedyOrder(leaves []leafInfo, edges []chainEdge) (candidate, bool) {
	n := len(leaves)
	var best candidate
	bestCost := 0.0
	found := false
	for start := 0; start < n; start++ {
		used := make([]bool, n)
		used[start] = true
		comp := newComposite(leaves[start], start)
		inter := leaves[start].rows
		steps := make([]chainStep, 0, n-1)
		total := 0.0
		for len(steps) < n-1 {
			picked := false
			var pick chainStep
			var pickComp composite
			pickCost, pickOut := 0.0, 0.0
			// A spurious resolution (same polygen name on an unrelated leaf)
			// can only cost a rewrite: the partition check rejects any
			// candidate whose final layout differs from the original's.
			for _, e := range edges {
				for u := 0; u < n; u++ {
					if used[u] {
						continue
					}
					for _, st := range [2]chainStep{
						{leaf: u, xName: e.xName, yName: e.yName},
						{leaf: u, xName: e.yName, yName: e.xName},
					} {
						cand, ok := comp.join(st.xName, leaves[u], u, st.yName)
						if !ok {
							continue
						}
						cost, out, ok := stepCost(comp, inter, st, leaves)
						if !ok {
							continue
						}
						if !picked || cost < pickCost {
							picked = true
							pick = st
							pickComp = cand
							pickCost, pickOut = cost, out
						}
						break
					}
				}
			}
			if !picked {
				break // disconnected under greedy growth from this start
			}
			used[pick.leaf] = true
			comp = pickComp
			inter = pickOut
			total += pickCost
			steps = append(steps, pick)
		}
		if len(steps) != n-1 {
			continue
		}
		if !found || total < bestCost {
			found = true
			bestCost = total
			best = candidate{start: start, steps: steps}
		}
	}
	return best, found
}

// applySteps simulates a candidate order from scratch.
func applySteps(start int, steps []chainStep, leaves []leafInfo) (composite, bool) {
	comp := newComposite(leaves[start], start)
	for _, st := range steps {
		var ok bool
		comp, ok = comp.join(st.xName, leaves[st.leaf], st.leaf, st.yName)
		if !ok {
			return composite{}, false
		}
	}
	return comp, true
}

// referencedNames lists the attribute names a tower row resolves against
// the chain's output.
func referencedNames(r Row) []string {
	names := append([]string(nil), r.LHA...)
	if r.RHA.Kind == CmpAttr {
		names = append(names, r.RHA.Attr)
	}
	return names
}

// rewrite replaces the chain's join rows with the reordered chain. Leaves
// and every other row keep their relative positions; the k join rows
// collect at the end of the chain's span, reusing the original join
// registers in ascending order so the top register — the only one visible
// outside the chain — is unchanged.
func (c *joinChain) rewrite(m *Matrix, start int, steps []chainStep) {
	joinSet := make(map[int]bool, len(c.joins))
	prs := make([]int, 0, len(c.joins))
	first, last := c.joins[0], c.joins[0]
	for _, ji := range c.joins {
		joinSet[ji] = true
		prs = append(prs, m.Rows[ji].PR)
		if ji < first {
			first = ji
		}
		if ji > last {
			last = ji
		}
	}
	sort.Ints(prs)
	out := make([]Row, 0, len(m.Rows))
	out = append(out, m.Rows[:first]...)
	for i := first; i <= last; i++ {
		if !joinSet[i] {
			out = append(out, m.Rows[i])
		}
	}
	reg := m.Rows[c.leaves[start]].PR
	for i, st := range steps {
		out = append(out, Row{
			PR:       prs[i],
			Op:       OpJoin,
			LHR:      RegOperand(reg),
			LHA:      []string{st.xName},
			Theta:    rel.ThetaEQ,
			HasTheta: true,
			RHA:      AttrComparand(st.yName),
			RHR:      RegOperand(m.Rows[c.leaves[st.leaf]].PR),
			EL:       "PQP",
		})
		reg = prs[i]
	}
	out = append(out, m.Rows[last+1:]...)
	m.Rows = out
}

// ---------------------------------------------------------------------------
// Chain simulation: layouts, provenance, tag algebra.

// tagSet is a set of local database names — a compile-time origin or
// intermediate set.
type tagSet map[string]bool

func tagOf(names ...string) tagSet {
	s := make(tagSet, len(names))
	for _, n := range names {
		if n != "" {
			s[n] = true
		}
	}
	return s
}

func (s tagSet) union(o tagSet) tagSet {
	out := make(tagSet, len(s)+len(o))
	for n := range s {
		out[n] = true
	}
	for n := range o {
		out[n] = true
	}
	return out
}

func (s tagSet) key() string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// composite is a simulated join composite: the attribute list plus, per
// column, the set of leaf columns coalesced into it and — when every leaf's
// tag state is a compile-time constant — the column's origin and
// intermediate tag sets.
type composite struct {
	attrs []core.Attr
	prov  []provSet
	// tagged is true while the per-column tag algebra is known exactly.
	tagged  bool
	origins []tagSet
	inters  []tagSet
}

type provSet map[leafCol]bool

type leafCol struct{ leaf, col int }

func (p provSet) key() string {
	cols := make([]string, 0, len(p))
	for lc := range p {
		cols = append(cols, fmt.Sprintf("%d.%d", lc.leaf, lc.col))
	}
	sort.Strings(cols)
	return strings.Join(cols, ",")
}

func (p provSet) union(o provSet) provSet {
	out := make(provSet, len(p)+len(o))
	for lc := range p {
		out[lc] = true
	}
	for lc := range o {
		out[lc] = true
	}
	return out
}

func newComposite(leaf leafInfo, idx int) composite {
	c := composite{
		attrs:  append([]core.Attr(nil), leaf.attrs...),
		prov:   make([]provSet, len(leaf.attrs)),
		tagged: leaf.tagged,
	}
	for i := range leaf.attrs {
		c.prov[i] = provSet{leafCol{leaf: idx, col: i}: true}
	}
	if c.tagged {
		c.origins = make([]tagSet, len(leaf.attrs))
		c.inters = make([]tagSet, len(leaf.attrs))
		for i := range leaf.attrs {
			c.origins[i] = tagOf(leaf.db)
			if leaf.mediated {
				c.inters[i] = tagOf(leaf.db)
			} else {
				c.inters[i] = tagOf()
			}
		}
	}
	return c
}

// join simulates joining the composite (left) with a leaf (right) on
// xName = yName, refusing any layout that needs disambiguation, and — when
// the tag algebra is known — applying the polygen join tag semantics: the
// operand columns' origins join every column's intermediate set, and the
// coalesced column unions both operands' tags.
func (c composite) join(xName string, leaf leafInfo, idx int, yName string) (composite, bool) {
	right := leaf.attrs
	xi, err := core.ResolveAttrIn("", c.attrs, xName)
	if err != nil {
		return composite{}, false
	}
	yi, err := core.ResolveAttrIn("", right, yName)
	if err != nil {
		return composite{}, false
	}
	out, coalesce := core.JoinLayout(c.attrs, xi, "", right, yi)
	// Reject layouts that renamed anything: runtime disambiguation depends
	// on relation names the simulation cannot reproduce.
	for i, at := range out {
		var want core.Attr
		switch {
		case i < len(c.attrs):
			if coalesce && i == xi {
				continue // the coalesced column may adopt the polygen name
			}
			want = c.attrs[i]
		case coalesce:
			want = rightAttrSkipping(right, yi, i-len(c.attrs))
		default:
			want = right[i-len(c.attrs)]
		}
		if at.Name != want.Name {
			return composite{}, false
		}
	}
	rc := newComposite(leaf, idx)
	n := composite{attrs: out, tagged: c.tagged && rc.tagged}
	n.prov = append(n.prov, c.prov...)
	if coalesce {
		n.prov[xi] = c.prov[xi].union(rc.prov[yi])
	}
	for i := range right {
		if coalesce && i == yi {
			continue
		}
		n.prov = append(n.prov, rc.prov[i])
	}
	if n.tagged {
		med := c.origins[xi].union(rc.origins[yi])
		for i := range c.attrs {
			o, in := c.origins[i], c.inters[i].union(med)
			if coalesce && i == xi {
				o = med
				in = c.inters[xi].union(rc.inters[yi]).union(med)
			}
			n.origins = append(n.origins, o)
			n.inters = append(n.inters, in)
		}
		for i := range right {
			if coalesce && i == yi {
				continue
			}
			n.origins = append(n.origins, rc.origins[i])
			n.inters = append(n.inters, rc.inters[i].union(med))
		}
	}
	return n, true
}

// product simulates the Cartesian product of the composite (left) with a
// leaf (right), refusing any layout that needs disambiguation. A product
// changes no tag, so the result carries layout and provenance only.
func (c composite) product(leaf leafInfo, idx int) (composite, bool) {
	n := composite{attrs: append([]core.Attr(nil), c.attrs...), prov: append([]provSet(nil), c.prov...)}
	for i, at := range leaf.attrs {
		if slices.ContainsFunc(n.attrs, func(a core.Attr) bool { return a.Name == at.Name }) {
			return composite{}, false
		}
		n.attrs = append(n.attrs, at)
		n.prov = append(n.prov, provSet{leafCol{leaf: idx, col: i}: true})
	}
	return n, true
}

func rightAttrSkipping(right []core.Attr, yi, i int) core.Attr {
	if i >= yi {
		i++
	}
	return right[i]
}

// compositesEqual compares two simulated layouts as multisets of
// (provenance set, name, polygen annotation) — column order is free, the
// terminal Project pins it.
func compositesEqual(a, b composite) bool {
	if len(a.attrs) != len(b.attrs) {
		return false
	}
	sig := func(c composite) []string {
		out := make([]string, len(c.attrs))
		for i, at := range c.attrs {
			out[i] = c.prov[i].key() + "|" + at.Name + "|" + at.Polygen
		}
		sort.Strings(out)
		return out
	}
	sa, sb := sig(a), sig(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// tagsEqual reports that both layouts' per-column tag algebra is known and
// identical: same origin and intermediate sets for the same provenance.
func tagsEqual(a, b composite) bool {
	if !a.tagged || !b.tagged || len(a.attrs) != len(b.attrs) {
		return false
	}
	sig := func(c composite) []string {
		out := make([]string, len(c.attrs))
		for i := range c.attrs {
			out[i] = c.prov[i].key() + "|" + c.origins[i].key() + "|" + c.inters[i].key()
		}
		sort.Strings(out)
		return out
	}
	sa, sb := sig(a), sig(b)
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// sameResolution checks that name resolves in both layouts to a column with
// identical provenance, name and annotation.
func sameResolution(a, b composite, name string) bool {
	ai, errA := core.ResolveAttrIn("", a.attrs, name)
	bi, errB := core.ResolveAttrIn("", b.attrs, name)
	if errA != nil || errB != nil {
		return false
	}
	return a.prov[ai].key() == b.prov[bi].key() &&
		a.attrs[ai] == b.attrs[bi]
}

// ---------------------------------------------------------------------------
// Simulator: per-row layouts and cardinality estimates.

// simulator derives per-row output attribute lists and cardinality
// estimates from the statistics catalog and the polygen schema.
type simulator struct {
	m     *Matrix
	s     *planState
	opts  Options
	attrs map[int][]core.Attr // row index -> simulated output attrs (nil = unknown)
	rows  map[int]float64     // row index -> estimated cardinality
}

func newSimulator(m *Matrix, s *planState, opts Options) *simulator {
	return &simulator{m: m, s: s, opts: opts, attrs: make(map[int][]core.Attr), rows: make(map[int]float64)}
}

// attrsOf returns the simulated output attribute list of row idx, nil when
// it cannot be derived faithfully.
func (sim *simulator) attrsOf(idx int) []core.Attr {
	if a, ok := sim.attrs[idx]; ok {
		return a
	}
	sim.attrs[idx] = nil // cycle guard
	a := sim.deriveAttrs(idx)
	sim.attrs[idx] = a
	return a
}

func (sim *simulator) deriveAttrs(idx int) []core.Attr {
	row := sim.m.Rows[idx]
	if isLocalRow(row) {
		return sim.localAttrs(row)
	}
	input := func(o Operand) []core.Attr {
		if o.Kind != OpdReg {
			return nil
		}
		pi, ok := sim.s.producer[o.Reg]
		if !ok {
			return nil
		}
		return sim.attrsOf(pi)
	}
	switch row.Op {
	case OpSelect, OpRestrict:
		return input(row.LHR)
	case OpProject:
		in := input(row.LHR)
		if in == nil {
			return nil
		}
		out := make([]core.Attr, len(row.LHA))
		for i, name := range row.LHA {
			ci, err := core.ResolveAttrIn("", in, name)
			if err != nil {
				return nil
			}
			out[i] = in[ci]
		}
		return out
	case OpJoin:
		l, r := input(row.LHR), input(row.RHR)
		if l == nil || r == nil || len(row.LHA) != 1 || row.RHA.Kind != CmpAttr {
			return nil
		}
		lc := newComposite(leafInfo{attrs: l}, 0)
		out, ok := lc.join(row.LHA[0], leafInfo{attrs: r}, 1, row.RHA.Attr)
		if !ok {
			return nil
		}
		return out.attrs
	case OpProduct:
		l, r := input(row.LHR), input(row.RHR)
		if l == nil || r == nil {
			return nil
		}
		out, ok := newComposite(leafInfo{attrs: l}, 0).product(leafInfo{attrs: r}, 1)
		if !ok {
			return nil
		}
		return out.attrs
	case OpMerge:
		return sim.mergeAttrs(row)
	case OpUnion, OpDifference, OpIntersect:
		return input(row.LHR)
	default:
		return nil
	}
}

// localAttrs simulates an LQP-resident row: the relation's column list from
// the statistics catalog, annotated through the schema, filtered by the
// row's own projection and pushed steps.
func (sim *simulator) localAttrs(row Row) []core.Attr {
	if row.LHR.Kind != OpdLocal || sim.opts.Stats == nil {
		return nil
	}
	db, lscheme := row.EL, row.LHR.Name
	cols, ok := sim.opts.Stats.Columns(db, lscheme)
	if !ok {
		return nil
	}
	if row.Op == OpProject {
		cols = row.LHA
	}
	for _, op := range row.Pushed {
		if op.Kind == lqp.OpProject {
			cols = op.Attrs
		}
	}
	l2p, _, _ := localAttrMaps(sim.opts.Schema, db, lscheme)
	out := make([]core.Attr, len(cols))
	for i, c := range cols {
		out[i] = core.Attr{Name: c, Polygen: l2p[c]}
	}
	return out
}

// mergeAttrs simulates a Merge row: the scheme's attributes under their
// polygen names — valid only when every column of every source relation is
// mapped by the scheme (an unmapped physical column would survive the merge
// under its local name, which the simulation cannot see).
func (sim *simulator) mergeAttrs(row Row) []core.Attr {
	scheme, ok := sim.opts.Schema.Scheme(row.Scheme)
	if !ok || sim.opts.Stats == nil {
		return nil
	}
	for _, lr := range scheme.LocalSchemes() {
		cols, ok := sim.opts.Stats.Columns(lr.DB, lr.Scheme)
		if !ok {
			return nil
		}
		mapped := make(map[string]bool)
		for _, pair := range scheme.LocalAttrsOf(lr) {
			mapped[pair.Local] = true
		}
		for _, c := range cols {
			if !mapped[c] {
				return nil
			}
		}
	}
	out := make([]core.Attr, len(scheme.Attrs))
	for i, a := range scheme.Attrs {
		out[i] = core.Attr{Name: a.Name, Polygen: a.Name}
	}
	return out
}

// rowsOf estimates the output cardinality of row idx.
func (sim *simulator) rowsOf(idx int) (float64, bool) {
	if est, ok := sim.rows[idx]; ok {
		return est, est >= 0
	}
	sim.rows[idx] = -1 // cycle guard / failure sentinel
	est, ok := sim.deriveRows(idx)
	if !ok {
		return 0, false
	}
	sim.rows[idx] = est
	return est, true
}

func (sim *simulator) deriveRows(idx int) (float64, bool) {
	row := sim.m.Rows[idx]
	input := func(o Operand) (float64, bool) {
		if o.Kind != OpdReg {
			return 0, false
		}
		pi, ok := sim.s.producer[o.Reg]
		if !ok {
			return 0, false
		}
		return sim.rowsOf(pi)
	}
	if isLocalRow(row) {
		if row.LHR.Kind != OpdLocal || sim.opts.Stats == nil {
			return 0, false
		}
		n, ok := sim.opts.Stats.Cardinality(row.EL, row.LHR.Name)
		if !ok {
			return 0, false
		}
		est := float64(n)
		if row.Op == OpSelect || row.Op == OpRestrict {
			est *= stats.DefaultFilterSelectivity
		}
		for _, op := range row.Pushed {
			if op.Kind == lqp.OpSelect || op.Kind == lqp.OpRestrict {
				est *= stats.DefaultFilterSelectivity
			}
		}
		return est, true
	}
	switch row.Op {
	case OpSelect, OpRestrict:
		l, ok := input(row.LHR)
		return l * stats.DefaultFilterSelectivity, ok
	case OpProject:
		return input(row.LHR)
	case OpJoin, OpProduct:
		l, okL := input(row.LHR)
		r, okR := input(row.RHR)
		if !okL || !okR {
			return 0, false
		}
		if row.Op == OpProduct {
			return l * r, true
		}
		return l * r * stats.DefaultFilterSelectivity, true
	case OpMerge:
		if row.LHR.Kind != OpdRegs {
			return 0, false
		}
		total := 0.0
		for _, reg := range row.LHR.Regs {
			pi, ok := sim.s.producer[reg]
			if !ok {
				return 0, false
			}
			n, ok := sim.rowsOf(pi)
			if !ok {
				return 0, false
			}
			total += n
		}
		return total, true
	case OpUnion:
		l, okL := input(row.LHR)
		r, okR := input(row.RHR)
		return l + r, okL && okR
	case OpIntersect:
		l, okL := input(row.LHR)
		r, okR := input(row.RHR)
		if !okL || !okR {
			return 0, false
		}
		if r < l {
			l = r
		}
		return l, true
	case OpDifference:
		return input(row.LHR)
	default:
		return 0, false
	}
}
