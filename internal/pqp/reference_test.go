package pqp

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sourceset"
	"repro/internal/translate"
)

// executeReference evaluates an Intermediate Operation Matrix register by
// register with the string-keyed core.Ref* operators — the oracle the
// engine is tested against. Select, Restrict and Product have no Ref*
// counterpart and run here as plain per-tuple loops written from §II.
// LQP-resident rows are fetched and tagged through the engine's own local
// path (openLocal): this oracle checks the algebra, not retrieval.
func executeReference(q *PQP, iom *translate.Matrix) (*core.Relation, error) {
	if iom.Cardinality() == 0 {
		return nil, fmt.Errorf("empty plan")
	}
	regs := make(map[int]*core.Relation, iom.Cardinality())
	for _, row := range iom.Rows {
		var out *core.Relation
		var err error
		if row.EL != "PQP" {
			var cur core.Cursor
			if cur, err = q.openLocal(row, execEnv{policy: q.Degrade}); err == nil {
				out, err = core.Drain(cur)
			}
		} else {
			out, err = referenceRow(q, row, regs)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", row, err)
		}
		regs[row.PR] = out
	}
	return regs[iom.Rows[len(iom.Rows)-1].PR], nil
}

func referenceRow(q *PQP, row translate.Row, regs map[int]*core.Relation) (*core.Relation, error) {
	reg := func(n int) (*core.Relation, error) {
		if p, ok := regs[n]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("register R(%d) not computed", n)
	}
	alg := q.alg
	if row.Op == translate.OpMerge {
		scheme, ok := q.schema.Scheme(row.Scheme)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", row.Scheme)
		}
		rels := make([]*core.Relation, len(row.LHR.Regs))
		for i, n := range row.LHR.Regs {
			p, err := reg(n)
			if err != nil {
				return nil, err
			}
			rels[i] = p
		}
		return alg.RefMerge(scheme, rels...)
	}
	l, err := reg(row.LHR.Reg)
	if err != nil {
		return nil, err
	}
	switch row.Op {
	case translate.OpSelect, translate.OpRestrict:
		xi, err := l.Col(row.LHA[0])
		if err != nil {
			return nil, err
		}
		if row.RHA.Kind == translate.CmpConst {
			return referenceFilter(l,
				func(t core.Tuple) bool { return row.Theta.Eval(t[xi].D, row.RHA.Const) },
				func(t core.Tuple) sourceset.Set { return t[xi].O })
		}
		yi, err := l.Col(row.RHA.Attr)
		if err != nil {
			return nil, err
		}
		return referenceFilter(l,
			func(t core.Tuple) bool { return referenceTheta(q, t[xi].D, row.Theta, t[yi].D) },
			func(t core.Tuple) sourceset.Set { return t[xi].O.Union(t[yi].O) })
	case translate.OpProject:
		return alg.RefProject(l, row.LHA)
	}
	r, err := reg(row.RHR.Reg)
	if err != nil {
		return nil, err
	}
	switch row.Op {
	case translate.OpJoin:
		return alg.RefJoin(l, row.LHA[0], row.Theta, r, row.RHA.Attr)
	case translate.OpUnion:
		return alg.RefUnion(l, r)
	case translate.OpDifference:
		return alg.RefDifference(l, r)
	case translate.OpIntersect:
		return alg.RefIntersect(l, r)
	case translate.OpProduct:
		// Column naming is layout, not tag calculus: take it from the
		// engine's product of the two empty operands.
		out, err := alg.Product(core.NewRelation(l.Name, l.Reg, l.Attrs...), core.NewRelation(r.Name, r.Reg, r.Attrs...))
		if err != nil {
			return nil, err
		}
		for _, t1 := range l.Tuples {
			for _, t2 := range r.Tuples {
				out.Tuples = append(out.Tuples, append(append(core.Tuple{}, t1...), t2...))
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported PQP operation %q", row.Op)
}

// referenceFilter is §II's Restrict shape: surviving tuples keep data and
// origins, and every cell's intermediate set gains the mediators' origins.
func referenceFilter(p *core.Relation, keep func(core.Tuple) bool, med func(core.Tuple) sourceset.Set) (*core.Relation, error) {
	out := core.NewRelation("", p.Reg, p.Attrs...)
	for _, t := range p.Tuples {
		if !keep(t) {
			continue
		}
		m := med(t)
		row := make(core.Tuple, len(t))
		for i, c := range t {
			row[i] = c.WithIntermediate(m)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// referenceTheta compares two attributes as Restrict does: = and ≠ by
// canonical instance string under the PQP's resolver (nulls never match),
// ordered θ by plain value ordering.
func referenceTheta(q *PQP, x rel.Value, theta rel.Theta, y rel.Value) bool {
	res := q.alg.Resolver()
	switch theta {
	case rel.ThetaEQ, rel.ThetaNE:
		if x.IsNull() || y.IsNull() {
			return false
		}
		return (res.Canonical(x) == res.Canonical(y)) == (theta == rel.ThetaEQ)
	default:
		return theta.Eval(x, y)
	}
}

// wantReference asserts got — the engine's answer to plan — equals the Ref*
// oracle's, cell for cell and attribute for attribute. Rows compare
// order-insensitively: the oracle's operators need not emit in the
// engine's order.
func wantReference(t *testing.T, q *PQP, label string, plan *translate.Matrix, got *core.Relation) {
	t.Helper()
	ref, err := executeReference(q, plan)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if fmt.Sprint(got.AttrNames()) != fmt.Sprint(ref.AttrNames()) {
		t.Errorf("%s: attr layout %v, reference %v", label, got.AttrNames(), ref.AttrNames())
	}
	diffRows(t, label+" [engine vs Ref* reference]", renderSorted(got), renderSorted(ref))
}
