package lqp

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/rel"
)

// Plan is the one request an LQP evaluates: a pipeline of local operations
// evaluated entirely inside one LQP. Ops[0] is the base operation and names
// the local relation; every later op applies to the running result (its
// Relation field is ignored). A bare operation is the one-step plan. The
// polygen Query Optimizer emits longer plans when it fuses PQP-resident
// Select/Restrict/Project rows into the local row that feeds them, so only
// the filtered, narrowed rows cross the wide-area boundary.
type Plan struct {
	Ops []Op
}

// PlanOf builds a plan from a base operation and trailing steps.
func PlanOf(base Op, steps ...Op) Plan {
	return Plan{Ops: append([]Op{base}, steps...)}
}

// Steps returns the pushed-down steps beyond the base operation.
func (p Plan) Steps() []Op {
	if len(p.Ops) <= 1 {
		return nil
	}
	return p.Ops[1:]
}

// Relation returns the base relation name.
func (p Plan) Relation() string {
	if len(p.Ops) == 0 {
		return ""
	}
	return p.Ops[0].Relation
}

// Validate checks the plan shape: a non-empty pipeline whose base op names
// a relation, whose later ops are Select, Restrict or Project, and whose
// Project lists name no attribute twice. It reads only the fields an op's
// kind reads, so a field that kind ignores may carry anything.
func (p Plan) Validate() error {
	if len(p.Ops) == 0 {
		return fmt.Errorf("lqp: empty plan")
	}
	if p.Ops[0].Relation == "" {
		return fmt.Errorf("lqp: plan base op names no relation")
	}
	for i, op := range p.Ops {
		switch op.Kind {
		case OpRetrieve:
			if i > 0 {
				return fmt.Errorf("lqp: Retrieve is only a base operation")
			}
		case OpSelect, OpRestrict:
		case OpProject:
			for j, a := range op.Attrs {
				if slices.Contains(op.Attrs[:j], a) {
					return fmt.Errorf("lqp: Project names attribute %q twice", a)
				}
			}
		default:
			return fmt.Errorf("lqp: unsupported operation %v", op.Kind)
		}
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

// Open implements LQP: one operation is the one-step plan.
func (l *Local) Open(op Op) (rel.Cursor, error) { return l.OpenPlan(PlanOf(op)) }

// OpenPlan implements LQP, and is the one local evaluator. It opens a view
// of the base relation and applies every op — the base op's own Select,
// Restrict or Project included — as a streamed step, one input batch in
// flight. Filters pass rows through uncopied (they may alias the live
// relation, which nothing mutates). A Project copies only the rows it
// emits, and eliminates duplicates unless it keeps every column of the
// relation's primary key, which then guarantees distinct rows; attribute
// names are stable through steps, so that holds after earlier Projects too.
func (l *Local) OpenPlan(p Plan) (rel.Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	schema, tuples, err := l.db.View(p.Relation())
	if err != nil {
		return nil, fmt.Errorf("lqp %s: %w", l.Name(), err)
	}
	key, err := l.db.Key(p.Relation())
	if err != nil {
		return nil, fmt.Errorf("lqp %s: %w", l.Name(), err)
	}
	cur := rel.NewSliceCursor(schema, tuples, rel.DefaultBatchSize)
	// rows sizes a Project's dedup table. The relation's cardinality bounds
	// a Project's input until a filter runs; after one, a table of that size
	// could dwarf the rows that pass, so the table grows with them instead.
	rows := len(tuples)
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSelect, OpRestrict:
			cur, err = filterStep(cur, op)
			rows = 0
		case OpProject:
			cur, err = rel.ProjectCursor(cur, op.Attrs, !keeps(op.Attrs, key), rows)
		}
		if err != nil {
			return nil, fmt.Errorf("lqp %s: %s: %w", l.Name(), p.Relation(), err)
		}
	}
	return cur, nil
}

// keeps reports whether attrs names every column of a declared key.
func keeps(attrs, key []string) bool {
	if len(key) == 0 {
		return false
	}
	for _, k := range key {
		if !slices.Contains(attrs, k) {
			return false
		}
	}
	return true
}

// filterStep wraps cur with one Select/Restrict predicate; on error it
// closes cur.
func filterStep(cur rel.Cursor, op Op) (rel.Cursor, error) {
	schema := cur.Schema()
	ci := schema.Index(op.Attr)
	if ci < 0 {
		cur.Close()
		return nil, fmt.Errorf("no attribute %q in %s", op.Attr, schema)
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
		return nil, fmt.Errorf("no attribute %q in %s", op.Attr2, schema)
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
