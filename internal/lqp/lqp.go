// Package lqp defines the Local Query Processor abstraction of the paper's
// Figure 1. To the Polygen Query Processor "each LQP behaves as a local
// relational system": it accepts a small repertoire of local operations
// (Retrieve, Select, Restrict, Project) against one local database and
// returns plain (untagged) relations. The PQP attaches origin tags to the
// results using the LQP's name as the execution location.
//
// Local (in-process, over a catalog.Database) is the base implementation;
// wire.Client runs the same operations over TCP against a cmd/lqpd server,
// standing in for the paper's encapsulation of "unusual query interfaces"
// behind the LQP boundary. Every LQP answers as a stream: OpenPlan evaluates
// a plan (plan.go) — a pipeline of local operations, one of them or more
// fused by the cost-based Query Optimizer — entirely inside the LQP, so
// only the filtered, narrowed rows cross the federation boundary; Open is
// the one-step plan. Stats reports per-relation cardinalities, column lists
// and keys, collected by internal/stats into the optimizer's cost model.
package lqp

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/rel"
)

// OpKind enumerates the local operations an LQP accepts.
type OpKind uint8

const (
	// OpRetrieve fetches an entire local relation — "an LQP Restrict
	// operation without any restricting condition" (paper, §II).
	OpRetrieve OpKind = iota
	// OpSelect fetches the tuples satisfying Attr θ Const.
	OpSelect
	// OpRestrict fetches the tuples satisfying Attr θ Attr2.
	OpRestrict
	// OpProject fetches the named columns with duplicates eliminated.
	OpProject
)

// String returns the operation name as it appears in the paper's matrices.
func (k OpKind) String() string {
	switch k {
	case OpRetrieve:
		return "Retrieve"
	case OpSelect:
		return "Select"
	case OpRestrict:
		return "Restrict"
	case OpProject:
		return "Project"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one local operation. It is a flat, gob-encodable struct so the same
// representation serves the in-process and the networked LQP.
type Op struct {
	Kind     OpKind
	Relation string    // local scheme name, e.g. "ALUMNUS"
	Attr     string    // LHS attribute for Select/Restrict
	Theta    rel.Theta // comparison for Select/Restrict
	Const    rel.Value // RHS constant for Select
	Attr2    string    // RHS attribute for Restrict
	Attrs    []string  // projection list for Project
}

// Retrieve builds a Retrieve op.
func Retrieve(relation string) Op { return Op{Kind: OpRetrieve, Relation: relation} }

// Select builds a Select op.
func Select(relation, attr string, theta rel.Theta, constant rel.Value) Op {
	return Op{Kind: OpSelect, Relation: relation, Attr: attr, Theta: theta, Const: constant}
}

// Restrict builds a Restrict op.
func Restrict(relation, attr string, theta rel.Theta, attr2 string) Op {
	return Op{Kind: OpRestrict, Relation: relation, Attr: attr, Theta: theta, Attr2: attr2}
}

// Project builds a Project op.
func Project(relation string, attrs ...string) Op {
	return Op{Kind: OpProject, Relation: relation, Attrs: attrs}
}

// String renders the op in the paper's algebraic notation.
func (o Op) String() string {
	switch o.Kind {
	case OpRetrieve:
		return o.Relation
	case OpSelect:
		return fmt.Sprintf("%s[%s %s %q]", o.Relation, o.Attr, o.Theta, o.Const)
	case OpRestrict:
		return fmt.Sprintf("%s[%s %s %s]", o.Relation, o.Attr, o.Theta, o.Attr2)
	case OpProject:
		return fmt.Sprintf("%s%v", o.Relation, o.Attrs)
	default:
		return fmt.Sprintf("op(%d) on %s", uint8(o.Kind), o.Relation)
	}
}

// LQP is the interface the Polygen Query Processor programs against.
type LQP interface {
	// Name returns the local database name, used by the PQP as the
	// execution location and the originating source tag.
	Name() string
	// Relations lists the local scheme names available.
	Relations() ([]string, error)
	// Open evaluates one operation: OpenPlan(PlanOf(op)).
	Open(op Op) (rel.Cursor, error)
	// OpenPlan evaluates a plan and returns a cursor over its result. The
	// batches obey the rel.Cursor contract (immutable, valid across Next
	// calls); they may alias live base-relation storage, so callers must
	// copy any tuple they intend to modify. Cursors that can also yield
	// batches in column-major form implement rel.ColCursor (Local's
	// retrieval cursors and wire.Client's streams do); consumers that want
	// column vectors — the wire server's frames, the PQP's tagging scan —
	// type-assert for it and fall back to row batches.
	OpenPlan(p Plan) (rel.Cursor, error)
	// Stats reports per-relation cardinalities, column lists and keys.
	Stats() ([]RelationStats, error)
}

// Inserter is the optional mutation capability: an LQP that accepts writes.
// A nil return acknowledges the write — for a durable node (store.LQP) that
// promise extends across crashes per its fsync policy, for an in-memory one
// only across the process lifetime. The wire protocol exposes it as the
// "insert" request kind, which is deliberately excluded from the client's
// idle-retry: a write whose response was lost has an unknown outcome, and
// replaying it could double-apply.
type Inserter interface {
	Insert(relation string, tuples []rel.Tuple) error
}

// Local is an in-process LQP over a catalog.Database.
type Local struct {
	db *catalog.Database
}

// NewLocal wraps db as an LQP.
func NewLocal(db *catalog.Database) *Local { return &Local{db: db} }

// Name implements LQP.
func (l *Local) Name() string { return l.db.Name() }

// Relations implements LQP.
func (l *Local) Relations() ([]string, error) { return l.db.Relations(), nil }

// Insert implements Inserter (in-memory only: a restart loses the rows;
// store.LQP overrides this with the write-ahead-logged path).
func (l *Local) Insert(relation string, tuples []rel.Tuple) error {
	return l.db.Insert(relation, tuples...)
}
