package lqp

import (
	"fmt"

	"repro/internal/rel"
	"repro/internal/relalg"
)

// Open implements LQP. Retrieve, Select and Restrict stream straight
// off the base relation — no per-tuple copy, one batch in flight; Project
// eliminates duplicates (a blocking step whose memory is bounded by the
// projected output) and streams the result.
func (l *Local) Open(op Op) (rel.Cursor, error) {
	schema, tuples, err := l.db.View(op.Relation)
	if err != nil {
		return nil, fmt.Errorf("lqp %s: %w", l.Name(), err)
	}
	// base is a read-only view of the live relation; the relalg operators
	// and the cursors below never mutate input tuples.
	base := &rel.Relation{Name: op.Relation, Schema: schema, Tuples: tuples}
	switch op.Kind {
	case OpRetrieve:
		return rel.CursorOf(base), nil
	case OpSelect:
		ci, err := base.Col(op.Attr)
		if err != nil {
			return nil, err
		}
		theta, constant := op.Theta, op.Const
		return rel.FilterCursor(rel.CursorOf(base), func(t rel.Tuple) bool {
			return theta.Eval(t[ci], constant)
		}), nil
	case OpRestrict:
		xi, err := base.Col(op.Attr)
		if err != nil {
			return nil, err
		}
		yi, err := base.Col(op.Attr2)
		if err != nil {
			return nil, err
		}
		theta := op.Theta
		return rel.FilterCursor(rel.CursorOf(base), func(t rel.Tuple) bool {
			return theta.Eval(t[xi], t[yi])
		}), nil
	case OpProject:
		r, err := relalg.Project(base, op.Attrs)
		if err != nil {
			return nil, err
		}
		return rel.CursorOf(r), nil
	default:
		return nil, fmt.Errorf("lqp %s: unsupported operation %v", l.Name(), op.Kind)
	}
}

var _ LQP = (*Local)(nil)
