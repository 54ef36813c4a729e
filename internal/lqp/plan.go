package lqp

import (
	"fmt"
	"strings"

	"repro/internal/rel"
	"repro/internal/relalg"
)

// Plan is a pushed-down local subplan: a pipeline of local operations
// evaluated entirely inside one LQP. Ops[0] is the base operation and names
// the local relation; every later op applies to the running result (its
// Relation field is ignored). The polygen Query Optimizer emits plans when
// it fuses PQP-resident Select/Restrict/Project rows into the local row
// that feeds them, so only the filtered, narrowed rows cross the wide-area
// boundary.
type Plan struct {
	Ops []Op
}

// PlanOf builds a plan from a base operation and trailing steps.
func PlanOf(base Op, steps ...Op) Plan {
	return Plan{Ops: append([]Op{base}, steps...)}
}

// Base returns the base operation (the first op).
func (p Plan) Base() Op {
	if len(p.Ops) == 0 {
		return Op{}
	}
	return p.Ops[0]
}

// Steps returns the pushed-down steps beyond the base operation.
func (p Plan) Steps() []Op {
	if len(p.Ops) <= 1 {
		return nil
	}
	return p.Ops[1:]
}

// Relation returns the base relation name.
func (p Plan) Relation() string { return p.Base().Relation }

// Validate checks the plan shape: a non-empty pipeline whose base op names
// a relation.
func (p Plan) Validate() error {
	if len(p.Ops) == 0 {
		return fmt.Errorf("lqp: empty plan")
	}
	if p.Ops[0].Relation == "" {
		return fmt.Errorf("lqp: plan base op names no relation")
	}
	return nil
}

// Mediates reports whether any pushed step beyond the base operation is a
// Select or Restrict. The PQP needs this to reconstruct the paper's
// intermediate tags exactly: a PQP-resident Select/Restrict adds the operand
// cells' origin — which for a freshly retrieved relation is uniformly the
// executing LQP — to every cell's intermediate set, so a fused filter step
// must reintroduce {LQP} when the result is tagged. The base operation does
// not mediate: pass one of the interpreter already executes it locally, and
// Tables 4–9 tag its result with empty intermediate sets.
func (p Plan) Mediates() bool {
	for _, op := range p.Steps() {
		if op.Kind == OpSelect || op.Kind == OpRestrict {
			return true
		}
	}
	return false
}

// String renders the pipeline in the paper's algebraic notation, e.g.
// ALUMNUS[DEG = "MBA"][SAL > 50000][ANAME, DEG].
func (p Plan) String() string {
	if len(p.Ops) == 0 {
		return "(empty plan)"
	}
	return p.Ops[0].String() + StepsString(p.Steps())
}

// StepsString renders a sequence of pipeline steps as chained bracket
// suffixes — each op's bracket part with the relation name stripped.
// Shared by Plan.String and the translate matrix renderer, so fused rows
// and pushed plans print identically.
func StepsString(steps []Op) string {
	var b strings.Builder
	for _, op := range steps {
		s := op.String()
		if i := strings.IndexByte(s, '['); i >= 0 {
			s = s[i:]
		} else {
			s = "[" + s + "]"
		}
		b.WriteString(s)
	}
	return b.String()
}

// OpenPlan implements LQP. Select and Restrict steps compose as filter
// cursors over the base stream — fully pipelined, no copy; a Project step
// is a blocking point (duplicate elimination), so the stream so far drains,
// projects, and the remaining steps filter the projected rows.
func (l *Local) OpenPlan(p Plan) (rel.Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cur, err := l.Open(p.Base())
	if err != nil {
		return nil, err
	}
	for _, op := range p.Steps() {
		switch op.Kind {
		case OpSelect, OpRestrict:
			cur, err = filterStep(cur, op)
		case OpProject:
			var r *rel.Relation
			if r, err = rel.Drain(cur); err == nil {
				if r, err = relalg.Project(r, op.Attrs); err == nil {
					cur = rel.CursorOf(r)
				}
			}
		default:
			cur.Close()
			return nil, fmt.Errorf("lqp %s: unsupported plan step %v", l.Name(), op.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// filterStep wraps cur with one Select/Restrict predicate.
func filterStep(cur rel.Cursor, op Op) (rel.Cursor, error) {
	schema := cur.Schema()
	ci := schema.Index(op.Attr)
	if ci < 0 {
		cur.Close()
		return nil, fmt.Errorf("lqp: no attribute %q in pushed plan step", op.Attr)
	}
	if op.Kind == OpSelect {
		theta, constant := op.Theta, op.Const
		return rel.FilterCursor(cur, func(t rel.Tuple) bool {
			return theta.Eval(t[ci], constant)
		}), nil
	}
	yi := schema.Index(op.Attr2)
	if yi < 0 {
		cur.Close()
		return nil, fmt.Errorf("lqp: no attribute %q in pushed plan step", op.Attr2)
	}
	theta := op.Theta
	return rel.FilterCursor(cur, func(t rel.Tuple) bool {
		return theta.Eval(t[ci], t[yi])
	}), nil
}

// RelationStats summarizes one local relation for the federated optimizer:
// cardinality drives join ordering, the column list drives projection
// narrowing and plan simulation.
type RelationStats struct {
	Name    string
	Rows    int
	Columns []string
	Key     []string
}

// Stats implements LQP from the catalog's metadata.
func (l *Local) Stats() ([]RelationStats, error) {
	infos := l.db.Stats()
	out := make([]RelationStats, len(infos))
	for i, in := range infos {
		out[i] = RelationStats{Name: in.Name, Rows: in.Rows, Columns: in.Columns, Key: in.Key}
	}
	return out, nil
}
