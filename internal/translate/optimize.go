package translate

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/stats"
)

// This file is the Query Optimizer stage of Figure 2. The paper names the
// component but declares its details beyond scope; this implementation is a
// cost-based, source-tag-aware plan rewriter for federations. Every rewrite
// is identity-preserving at the cell level — data, origin tags and
// intermediate tags — which the pqp property suite enforces by running
// optimized plans against the unoptimized reference engines.
//
// Passes, in order:
//
//   - common-subexpression elimination: duplicate rows (most commonly the
//     Retrieve/Merge fan-outs that pass two emits once per reference to a
//     multi-source scheme) collapse into a single computation;
//   - local chain fusion (predicate and projection pushdown): a
//     PQP-resident Select/Restrict/Project whose only input is the output
//     of an LQP-resident row is fused into that row as a pushed-down local
//     step, so the LQP ships only the filtered, narrowed rows. Fusion
//     respects the polygen tag calculus (see fuseLocalChains);
//   - projection narrowing: a Retrieve whose downstream consumers demand
//     only a subset of its columns retrieves just that subset (plus every
//     column whose origin tags later operations consult — condition and
//     join columns are never projected away). Demand reaches through
//     Join, θ-join, Product and Merge rows to the sources feeding them,
//     over layouts simulated with the reorder pass's simulator, which
//     reads the sources' column lists from the statistics catalog (see
//     narrowRetrieves);
//   - greedy join reordering (reorder.go): with relation statistics
//     available and an exact instance resolver, left-deep equi-join chains
//     re-join smallest-first;
//   - dead-row elimination: rows whose results no later row (and not the
//     final row) consumes are dropped, and registers renumber densely.
//
// Optimize applies the statistics-free subset (it has no schema access and
// exists for compatibility and as the paper-faithful baseline);
// OptimizeWithOptions is the full rewriter the PQP drives.
//
// What is deliberately NOT rewritten, because the polygen tag semantics do
// not commute with it:
//
//   - selections do not push through Merge: a Select above a Merge filters
//     coalesced, multi-source values. Filtering each source first changes
//     which cells coalesce — a source whose row fails the predicate locally
//     would no longer contribute its other columns to the merged tuple, so
//     both data and tags can change. Selections on tag-bearing merged
//     attributes stay PQP-side.
//   - selections do not push through Join: a PQP Select after a join adds
//     the operand column's origins to the intermediate set of EVERY cell of
//     the surviving rows — including the other operand's cells. Pushed
//     below the join it could no longer reach those cells, so t(i) would
//     differ.
//   - selections and restrictions on domain-mapped attributes stay
//     PQP-side (the LQP would compare raw, unmapped values), and
//     projections never push when a projected column is domain-mapped (the
//     LQP would eliminate duplicates on raw values that map to equal
//     domain values, changing the result's cardinality).
//   - restrictions push only for ordered comparisons (<, <=, >, >=): the
//     PQP routes = and <> through the instance resolver's canonical IDs,
//     the LQP compares plain values with numeric coercion — the two
//     disagree even under an exact resolver (Int(5) vs Float(5)).

// Options configures the cost-based passes of OptimizeWithOptions. The zero
// value disables everything that needs federation knowledge, leaving CSE
// and dead-row elimination.
type Options struct {
	// Schema is the polygen schema; required by every pushdown pass (it
	// supplies the attribute mappings and the domain-map table).
	Schema *core.Schema
	// Stats, when non-nil, supplies per-LQP relation cardinalities, column
	// lists and link latencies. Join reordering, narrowing through joins
	// and the width check of projection narrowing require it.
	Stats *stats.Catalog
	// CanPush reports whether the named local database has an LQP to push
	// subplans to (every lqp.LQP accepts them). A nil CanPush means no LQP
	// does: fusion is skipped entirely and narrowing only rewrites bare
	// Retrieves (a single local Project every LQP supports).
	CanPush func(db string) bool
	// ExactResolver reports that the executing algebra's instance resolver
	// is exact. Join reordering is gated on it (a reorder may change which
	// operand of a coalesce keeps its datum, indistinguishable only when
	// equal instances are identical values).
	ExactResolver bool
	// RelaxedJoinReorder permits join orders whose intermediate tags differ
	// from the original plan's. The polygen tag calculus is operational —
	// t(i) records which sources each evaluation step consulted — so a
	// reordered chain produces a different but internally consistent audit
	// trail; data and origin tags are still proven identical. Off by
	// default: the strict mode only accepts orders whose tag algebra
	// coincides with the original (see reorder.go).
	RelaxedJoinReorder bool
}

// Optimize is the statistics-free Query Optimizer: common-subexpression
// elimination plus dead-row elimination, with registers renumbered densely.
// The rewrite never changes the final relation — TestOptimizePreservesResult
// checks exactly that. The PQP
// calls OptimizeWithOptions instead, which layers the cost-based federated
// passes on top.
func Optimize(iom *Matrix) (*Matrix, error) {
	return OptimizeWithOptions(iom, Options{})
}

// OptimizeWithOptions runs the full rewriter described in the file comment.
func OptimizeWithOptions(iom *Matrix, opts Options) (*Matrix, error) {
	out, err := dedup(iom)
	if err != nil {
		return nil, fmt.Errorf("translate: optimize: %w", err)
	}
	if opts.Schema != nil {
		fuseLocalChains(out, opts)
		narrowRetrieves(out, opts)
		if opts.Stats != nil && opts.ExactResolver {
			reorderJoinChains(out, opts)
		}
	}
	return eliminateDead(out)
}

// dedup collapses duplicate rows (CSE) and renumbers densely.
func dedup(iom *Matrix) (*Matrix, error) {
	out := &Matrix{}
	regMap := make(map[int]int)  // input register -> output register
	seen := make(map[string]int) // row signature -> output register
	for _, row := range iom.Rows {
		mapped, err := remapRow(row, regMap)
		if err != nil {
			return nil, err
		}
		sig := signature(mapped)
		if existing, dup := seen[sig]; dup {
			regMap[row.PR] = existing
			continue
		}
		mapped.PR = len(out.Rows) + 1
		out.Rows = append(out.Rows, mapped)
		regMap[row.PR] = mapped.PR
		seen[sig] = mapped.PR
	}
	return out, nil
}

func remapRow(row Row, regMap map[int]int) (Row, error) {
	out := row
	var err error
	if out.LHR, err = remapOperand(out.LHR, regMap); err != nil {
		return out, err
	}
	if out.RHR, err = remapOperand(out.RHR, regMap); err != nil {
		return out, err
	}
	return out, nil
}

func remapOperand(o Operand, regMap map[int]int) (Operand, error) {
	switch o.Kind {
	case OpdReg:
		m, ok := regMap[o.Reg]
		if !ok {
			return o, fmt.Errorf("register R(%d) not yet computed", o.Reg)
		}
		return RegOperand(m), nil
	case OpdRegs:
		regs := make([]int, len(o.Regs))
		for i, r := range o.Regs {
			m, ok := regMap[r]
			if !ok {
				return o, fmt.Errorf("register R(%d) not yet computed", r)
			}
			regs[i] = m
		}
		return RegsOperand(regs...), nil
	default:
		return o, nil
	}
}

// signature canonicalizes a row (ignoring its own PR) for duplicate
// detection. Merge register lists are order-normalized: §II proves merge
// order immaterial, so {R(1),R(2),R(3)} and {R(2),R(1),R(3)} coincide.
func signature(r Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s|%s", r.Op, operandSig(r.LHR), r.lhaString(), r.thetaString(), r.RHA, operandSig(r.RHR), r.EL)
	if r.Scheme != "" {
		fmt.Fprintf(&b, "|%s", r.Scheme)
	}
	if len(r.Pushed) > 0 {
		fmt.Fprintf(&b, "|push:%s", lqp.StepsString(r.Pushed))
	}
	return b.String()
}

func operandSig(o Operand) string {
	if o.Kind == OpdRegs {
		regs := append([]int(nil), o.Regs...)
		sort.Ints(regs)
		parts := make([]string, len(regs))
		for i, r := range regs {
			parts[i] = fmt.Sprintf("R(%d)", r)
		}
		return strings.Join(parts, ",")
	}
	return o.String()
}

// isLocalRow reports whether the row executes at an LQP.
func isLocalRow(r Row) bool { return r.EL != "" && r.EL != "PQP" }

// planState indexes a working matrix: producer row and consumer count per
// register, plus a register alias map maintained as fusion collapses rows.
type planState struct {
	m         *Matrix
	producer  map[int]int // register -> row index
	consumers map[int]int // register -> number of consuming rows
	deleted   []bool
}

func newPlanState(m *Matrix) *planState {
	s := &planState{
		m:         m,
		producer:  make(map[int]int, len(m.Rows)),
		consumers: make(map[int]int, len(m.Rows)),
		deleted:   make([]bool, len(m.Rows)),
	}
	for i, row := range m.Rows {
		s.producer[row.PR] = i
		forEachReg(row, func(reg int) { s.consumers[reg]++ })
	}
	if len(m.Rows) > 0 {
		s.consumers[m.Rows[len(m.Rows)-1].PR]++ // the caller consumes the final register
	}
	return s
}

func forEachReg(row Row, fn func(int)) {
	for _, o := range [...]Operand{row.LHR, row.RHR} {
		switch o.Kind {
		case OpdReg:
			fn(o.Reg)
		case OpdRegs:
			for _, r := range o.Regs {
				fn(r)
			}
		}
	}
}

// fuseLocalChains is the predicate/projection pushdown pass. A PQP-resident
// Select, Restrict or Project whose left operand is the register of an
// LQP-resident row — and that register's only consumer — is fused into the
// local row as a pushed-down step, provided:
//
//   - the LQP advertises the pushdown capability (Options.CanPush);
//   - every referenced attribute maps to a column of the local relation
//     through the polygen schema, unambiguously;
//   - no condition column is domain-mapped (for Select/Restrict), and no
//     projected column is domain-mapped (for Project);
//   - for Restrict, the comparison is ordered (= and <> resolve through
//     the PQP's instance resolver and must stay PQP-side).
//
// The fused plan's answer is cell-for-cell identical to the unfused one:
// right after a retrieval every cell's origin set is exactly {LQP}, so the
// intermediate tags a PQP-side Select/Restrict would have added are the
// uniform {LQP} — which the PQP reconstructs when it tags the pushed plan's
// result (lqp.Plan.Mediates). Chains fuse transitively: Select ∘ Select ∘
// Project over one retrieval becomes one three-step local subplan.
func fuseLocalChains(m *Matrix, opts Options) {
	if opts.CanPush == nil || len(m.Rows) == 0 {
		return
	}
	finalPR := m.Rows[len(m.Rows)-1].PR
	s := newPlanState(m)
	for i := 0; i < len(m.Rows); i++ {
		row := m.Rows[i]
		if s.deleted[i] || row.EL != "PQP" || row.LHR.Kind != OpdReg || row.RHR.Kind != OpdNone {
			continue
		}
		switch row.Op {
		case OpSelect, OpRestrict, OpProject:
		default:
			continue
		}
		pi, ok := s.producer[row.LHR.Reg]
		if !ok || s.deleted[pi] {
			continue
		}
		p := m.Rows[pi]
		if !isLocalRow(p) || p.LHR.Kind != OpdLocal || s.consumers[row.LHR.Reg] != 1 {
			continue
		}
		if !opts.CanPush(p.EL) {
			continue
		}
		step, ok := localizeStep(opts, p, row)
		if !ok {
			continue
		}
		// Fuse: the producer absorbs the step and takes over the consumer's
		// register (downstream references keep working unchanged); the
		// consumer row dies.
		p.Pushed = append(p.Pushed, step)
		p.PR = row.PR
		m.Rows[pi] = p
		s.deleted[i] = true
		s.producer[row.PR] = pi
	}
	compact(m, s, finalPR)
}

// localizeStep translates one PQP-resident row into a local operation
// executable inside producer p's LQP, or reports that it cannot push.
func localizeStep(opts Options, p Row, row Row) (lqp.Op, bool) {
	db, lscheme := p.EL, p.LHR.Name
	known := outputColumns(p)
	l2p, p2l, ok := localAttrMaps(opts.Schema, db, lscheme)
	if !ok {
		return lqp.Op{}, false
	}
	resolve := func(name string) (string, bool) {
		return resolveLocalName(name, known, l2p, p2l)
	}
	mapped := func(local string) bool {
		return opts.Schema.DomainMap.Has(db, lscheme, local)
	}
	switch row.Op {
	case OpSelect:
		if row.RHA.Kind != CmpConst || len(row.LHA) != 1 || !row.HasTheta {
			return lqp.Op{}, false
		}
		local, ok := resolve(row.LHA[0])
		if !ok || mapped(local) {
			return lqp.Op{}, false
		}
		return lqp.Select(lscheme, local, row.Theta, row.RHA.Const), true
	case OpRestrict:
		switch row.RHA.Kind {
		case CmpConst:
			// A Restrict against a constant is a Select in disguise (the PQP
			// executes it as one).
			if len(row.LHA) != 1 || !row.HasTheta {
				return lqp.Op{}, false
			}
			local, ok := resolve(row.LHA[0])
			if !ok || mapped(local) {
				return lqp.Op{}, false
			}
			return lqp.Select(lscheme, local, row.Theta, row.RHA.Const), true
		case CmpAttr:
			// The PQP routes = and <> through the instance resolver's
			// canonical IDs (kind-sensitive: Int(5) never equals Float(5)),
			// while an LQP compares with rel.Theta.Eval, which coerces
			// numeric kinds — even an exact resolver diverges on mixed
			// columns. Ordered comparisons use Theta.Eval on both sides, so
			// only they may push.
			if row.Theta == rel.ThetaEQ || row.Theta == rel.ThetaNE ||
				len(row.LHA) != 1 || !row.HasTheta {
				return lqp.Op{}, false
			}
			x, okX := resolve(row.LHA[0])
			y, okY := resolve(row.RHA.Attr)
			if !okX || !okY || mapped(x) || mapped(y) {
				return lqp.Op{}, false
			}
			return lqp.Restrict(lscheme, x, row.Theta, y), true
		default:
			return lqp.Op{}, false
		}
	case OpProject:
		if len(row.LHA) == 0 {
			return lqp.Op{}, false
		}
		locals := make([]string, len(row.LHA))
		for i, name := range row.LHA {
			local, ok := resolve(name)
			if !ok || mapped(local) {
				return lqp.Op{}, false
			}
			locals[i] = local
		}
		return lqp.Project(lscheme, locals...), true
	}
	return lqp.Op{}, false
}

// outputColumns returns the known output column list of a local row, or nil
// when the row emits the relation's full (statically unknown) width. A
// Project base op or a pushed Project step fixes the list.
func outputColumns(p Row) []string {
	var cols []string
	if p.Op == OpProject {
		cols = p.LHA
	}
	for _, op := range p.Pushed {
		if op.Kind == lqp.OpProject {
			cols = op.Attrs
		}
	}
	return cols
}

// localAttrMaps builds, for one local relation, the local→polygen and
// polygen→local attribute name maps across every scheme that draws from it.
// Ambiguous polygen names (mapping to two different local columns) are
// dropped from the reverse map; a local column feeding two polygen
// attributes keeps its first (declaration-order) mapping, mirroring
// Schema.PolygenAttrOf.
func localAttrMaps(schema *core.Schema, db, lscheme string) (l2p, p2l map[string]string, ok bool) {
	l2p = make(map[string]string)
	p2l = make(map[string]string)
	ambiguous := make(map[string]bool)
	lr := core.LocalRelation{DB: db, Scheme: lscheme}
	found := false
	for _, sn := range schema.SchemeNames() {
		scheme, _ := schema.Scheme(sn)
		for _, pair := range scheme.LocalAttrsOf(lr) {
			found = true
			if _, dup := l2p[pair.Local]; !dup {
				l2p[pair.Local] = pair.Polygen
			}
			if prev, dup := p2l[pair.Polygen]; dup && prev != pair.Local {
				ambiguous[pair.Polygen] = true
			} else {
				p2l[pair.Polygen] = pair.Local
			}
		}
	}
	for pa := range ambiguous {
		delete(p2l, pa)
	}
	return l2p, p2l, found
}

// resolveLocalName resolves an attribute reference the way core.Relation.Col
// does — display (local) name first, then polygen annotation — against a
// local relation whose full column list may be unknown. known, when non-nil,
// is the current projected column list.
func resolveLocalName(name string, known []string, l2p, p2l map[string]string) (string, bool) {
	if known != nil {
		for _, c := range known {
			if c == name {
				return name, true
			}
		}
		if local, ok := p2l[name]; ok {
			for _, c := range known {
				if c == local {
					return local, true
				}
			}
		}
		return "", false
	}
	if _, isLocal := l2p[name]; isLocal {
		return name, true
	}
	if local, ok := p2l[name]; ok {
		return local, true
	}
	return "", false
}

// compact drops deleted rows and renumbers the remaining ones densely,
// remapping all register references. The row holding the plan's final
// register is restored to the last position: fusing the final PQP row into
// an earlier local row moves the final register up the list, and the
// executors take the positionally-last row as the answer. The move is safe
// because that row's only consumer was the fused (deleted) row.
func compact(m *Matrix, s *planState, finalPR int) {
	survivors := make([]Row, 0, len(m.Rows))
	fi := -1
	for i, row := range m.Rows {
		if s.deleted[i] {
			continue
		}
		if row.PR == finalPR {
			fi = len(survivors)
		}
		survivors = append(survivors, row)
	}
	if fi >= 0 && fi != len(survivors)-1 {
		final := survivors[fi]
		survivors = append(append(survivors[:fi:fi], survivors[fi+1:]...), final)
	}
	regMap := make(map[int]int, len(survivors))
	out := make([]Row, 0, len(survivors))
	for _, row := range survivors {
		mapped, err := remapRow(row, regMap)
		if err != nil {
			// Cannot happen on a well-formed matrix: deletions only ever
			// redirect a register to an earlier row, and the moved final row
			// has no register operands (it is LQP-resident).
			panic(fmt.Sprintf("translate: optimize: %v", err))
		}
		mapped.PR = len(out) + 1
		out = append(out, mapped)
		regMap[row.PR] = mapped.PR
	}
	m.Rows = out
}

// columnDemand is the set of output columns a row's consumers need: either
// everything (top) or a finite name set.
type columnDemand struct {
	top   bool
	names map[string]bool
}

func (d *columnDemand) addAll() { d.top = true }

func (d *columnDemand) add(names ...string) {
	if d.top {
		return
	}
	if d.names == nil {
		d.names = make(map[string]bool)
	}
	for _, n := range names {
		d.names[n] = true
	}
}

func (d *columnDemand) merge(o columnDemand) {
	if o.top {
		d.addAll()
		return
	}
	for n := range o.names {
		d.add(n)
	}
}

// narrowRetrieves is the projection-narrowing pass. It computes, for every
// register, which output columns its consumers can possibly observe.
// Demand flows backwards through PQP-resident Select/Restrict rows (which
// pass their input through and additionally observe their condition
// columns) and is cut by Project rows to their projection list. A finite
// demand on a Join, θ-join, Product or Merge row splits over its inputs
// (inputDemand): a join's output cell takes its datum and tags from one
// input cell plus the origins of the two join cells, so each input owes
// only the demanded columns it supplies and its join column. Where the
// split cannot be proven (see inputDemand), and for the set operations,
// which compare whole tuples, demand on the inputs is total.
//
// A local row whose register has a finite demand retrieves only the
// demanded columns: a bare Retrieve becomes a local Project (every LQP
// supports that single operation), any other local row gains a pushed
// Project step (capability-gated). Condition and join columns are part of
// the demand by construction, so a column whose origin tags mediate a
// later selection or join — a tag-bearing column — is never projected
// away. Finite demand implies every consumption path passes a duplicate-
// eliminating PQP Project, so the early duplicate elimination at the LQP
// cannot change the final relation: the LQP's exact Identical dedup is
// finer than the PQP's canonical-ID dedup, the rows it collapses carry the
// same uniform retrieval tags, and every join, product or merge row built
// from them differs from its twin only in columns no Project keeps.
func narrowRetrieves(m *Matrix, opts Options) {
	if len(m.Rows) == 0 {
		return
	}
	demand := make([]columnDemand, len(m.Rows)+1) // indexed by register
	demand[m.Rows[len(m.Rows)-1].PR].addAll()     // the final relation is fully visible
	var sim *simulator                            // built on the first finite join demand
	for i := len(m.Rows) - 1; i >= 0; i-- {
		row := m.Rows[i]
		own := demand[row.PR]
		if row.EL == "PQP" && row.RHR.Kind == OpdNone && row.LHR.Kind == OpdReg {
			switch row.Op {
			case OpProject:
				demand[row.LHR.Reg].add(row.LHA...)
				continue
			case OpSelect:
				demand[row.LHR.Reg].merge(own)
				demand[row.LHR.Reg].add(row.LHA...)
				continue
			case OpRestrict:
				demand[row.LHR.Reg].merge(own)
				demand[row.LHR.Reg].add(row.LHA...)
				if row.RHA.Kind == CmpAttr {
					demand[row.LHR.Reg].add(row.RHA.Attr)
				}
				continue
			}
		}
		if row.EL == "PQP" && !own.top && (row.Op == OpJoin || row.Op == OpProduct || row.Op == OpMerge) {
			if sim == nil {
				sim = newSimulator(m, newPlanState(m), opts)
			}
			if ins, ok := sim.inputDemand(i, own); ok {
				for reg, names := range ins {
					demand[reg].add(names...)
				}
				continue
			}
		}
		// Every other operation observes its register inputs entirely.
		forEachReg(row, func(reg int) { demand[reg].addAll() })
	}
	for i, row := range m.Rows {
		d := demand[row.PR]
		if d.top || len(d.names) == 0 || !isLocalRow(row) || row.LHR.Kind != OpdLocal {
			continue
		}
		if narrowed, ok := narrowLocalRow(row, d, opts); ok {
			m.Rows[i] = narrowed
		}
	}
}

// inputDemand splits a finite demand on the output of Join, Product or
// Merge row idx over the row's register inputs, naming for each input the
// columns it must keep: every column a demanded name resolves to in the
// simulated output layout (a coalesced join column to both join columns),
// plus a join's two condition columns and each Merge fragment's scheme key.
// It reports false, leaving demand total, when an input's layout is
// unknown, the output layout would rename a column (renaming depends on
// runtime relation names, and a narrower input could rename differently),
// or a demanded name does not resolve. Without renaming, a name resolves
// in a narrowed layout to the same column as in the full one, so every
// consumer above still binds the columns it bound before.
func (sim *simulator) inputDemand(idx int, d columnDemand) (map[int][]string, bool) {
	row := sim.m.Rows[idx]
	regs := []int{row.LHR.Reg, row.RHR.Reg}
	if row.LHR.Kind == OpdRegs {
		regs = row.LHR.Regs
	}
	ins := make([][]core.Attr, len(regs))
	need := make([]map[int]bool, len(regs)) // per input: column indexes kept
	for k, reg := range regs {
		if pi, ok := sim.s.producer[reg]; ok {
			ins[k] = sim.attrsOf(pi)
		}
		if ins[k] == nil {
			return nil, false
		}
		need[k] = make(map[int]bool)
	}
	if row.Op == OpMerge {
		// Merge coalesces fragment columns by polygen attribute and names
		// each output column after its attribute. A fragment column
		// annotated outside the scheme would survive under its own name.
		scheme, ok := sim.opts.Schema.Scheme(row.Scheme)
		if !ok {
			return nil, false
		}
		keep := map[string]bool{scheme.Key: true}
		for name := range d.names {
			if _, ok := scheme.Attr(name); !ok {
				return nil, false
			}
			keep[name] = true
		}
		for k, attrs := range ins {
			for c, at := range attrs {
				if _, ok := scheme.Attr(at.Polygen); !ok && at.Polygen != scheme.Key {
					return nil, false
				}
				if keep[at.Polygen] {
					need[k][c] = true
				}
			}
		}
	} else {
		left, right := newComposite(leafInfo{attrs: ins[0]}, 0), leafInfo{attrs: ins[1]}
		var out composite
		var ok bool
		switch {
		case row.Op == OpProduct:
			out, ok = left.product(right, 1)
		case len(row.LHA) == 1 && row.RHA.Kind == CmpAttr:
			if out, ok = left.join(row.LHA[0], right, 1, row.RHA.Attr); ok {
				xi, _ := core.ResolveAttrIn("", ins[0], row.LHA[0])
				yi, _ := core.ResolveAttrIn("", ins[1], row.RHA.Attr)
				need[0][xi], need[1][yi] = true, true
			}
		}
		if !ok {
			return nil, false
		}
		for name := range d.names {
			ci, err := core.ResolveAttrIn("", out.attrs, name)
			if err != nil {
				return nil, false
			}
			for lc := range out.prov[ci] {
				need[lc.leaf][lc.col] = true
			}
		}
	}
	out := make(map[int][]string, len(regs))
	for k, reg := range regs {
		for c := range need[k] {
			name := ins[k][c].Name
			if ci, err := core.ResolveAttrIn("", ins[k], name); err != nil || ci != c {
				return nil, false
			}
			out[reg] = append(out[reg], name)
		}
	}
	return out, true
}

// narrowLocalRow rewrites one local row to emit only the demanded columns,
// or reports that it cannot.
func narrowLocalRow(row Row, d columnDemand, opts Options) (Row, bool) {
	db, lscheme := row.EL, row.LHR.Name
	known := outputColumns(row)
	l2p, p2l, ok := localAttrMaps(opts.Schema, db, lscheme)
	if !ok {
		return row, false
	}
	locals := make([]string, 0, len(d.names))
	seen := make(map[string]bool, len(d.names))
	for name := range d.names {
		local, ok := resolveLocalName(name, known, l2p, p2l)
		if !ok {
			return row, false // a demanded column we cannot place — keep the full width
		}
		if !seen[local] {
			seen[local] = true
			locals = append(locals, local)
		}
	}
	sort.Strings(locals)
	if known != nil {
		// Already projected; only narrow further on a strict subset.
		if len(locals) >= len(known) {
			return row, false
		}
	} else if cols, ok := statsColumns(opts, db, lscheme); ok && len(locals) >= len(cols) {
		return row, false // demand covers the whole relation — nothing to save
	}
	if row.Op == OpRetrieve && len(row.Pushed) == 0 {
		row.Op = OpProject
		row.LHA = locals
		return row, true
	}
	if row.Op == OpProject && len(row.Pushed) == 0 {
		row.LHA = locals
		return row, true
	}
	if opts.CanPush == nil || !opts.CanPush(db) {
		return row, false
	}
	row.Pushed = append(append([]lqp.Op(nil), row.Pushed...), lqp.Project(lscheme, locals...))
	return row, true
}

func statsColumns(opts Options, db, relation string) ([]string, bool) {
	if opts.Stats == nil {
		return nil, false
	}
	return opts.Stats.Columns(db, relation)
}

// eliminateDead removes rows unreachable from the final row and renumbers.
func eliminateDead(m *Matrix) (*Matrix, error) {
	if len(m.Rows) == 0 {
		return m, nil
	}
	needed := make(map[int]bool, len(m.Rows))
	mark := func(o Operand) {
		switch o.Kind {
		case OpdReg:
			needed[o.Reg] = true
		case OpdRegs:
			for _, r := range o.Regs {
				needed[r] = true
			}
		}
	}
	needed[m.Rows[len(m.Rows)-1].PR] = true
	for i := len(m.Rows) - 1; i >= 0; i-- {
		row := m.Rows[i]
		if !needed[row.PR] {
			continue
		}
		mark(row.LHR)
		mark(row.RHR)
	}
	out := &Matrix{}
	regMap := make(map[int]int)
	for _, row := range m.Rows {
		if !needed[row.PR] {
			continue
		}
		mapped, err := remapRow(row, regMap)
		if err != nil {
			return nil, err
		}
		mapped.PR = len(out.Rows) + 1
		out.Rows = append(out.Rows, mapped)
		regMap[row.PR] = mapped.PR
	}
	return out, nil
}
