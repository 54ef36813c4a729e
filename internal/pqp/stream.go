package pqp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sourceset"
	"repro/internal/translate"
)

// This file is the execution engine: a plan is compiled into a tree of
// core.Cursors (openPlan) and the answer is pulled through it batch by
// batch. Registers consumed exactly once never materialize — their rows
// flow straight into the consuming operator; registers consumed more than
// once (or by no one: dead rows still execute, for LQP-operation fidelity)
// are drained into relations at build time.
//
// LQP-resident rows are opened eagerly, in plan order, each behind a
// prefetching reader: every local retrieval proceeds on its own goroutine
// (bounded by prefetchDepth batches) while the PQP evaluates, so wide-area
// LQP latency overlaps both with PQP-side operator work and with the other
// retrievals, without giving up a deterministic operation order.

// prefetchDepth is how many batches a local stream may run ahead of its
// consumer: deep enough to absorb per-batch wide-area latency, shallow
// enough to bound every stream's buffered memory.
const prefetchDepth = 8

// Execute evaluates an Intermediate Operation Matrix and returns the final
// register's relation, streaming every register that has one consumer.
func (q *PQP) Execute(iom *translate.Matrix) (*core.Relation, error) {
	return q.execute(iom, execEnv{policy: q.Degrade})
}

func (q *PQP) execute(iom *translate.Matrix, env execEnv) (*core.Relation, error) {
	cur, _, err := q.openPlan(iom, env, false)
	if err != nil {
		return nil, err
	}
	out, err := core.Drain(cur)
	if err != nil {
		// Streamed operators defer their work to the drain, so the failing
		// row cannot be named here — the wrapped error carries the failing
		// operator's own context (lqp/wire/core prefixes).
		return nil, fmt.Errorf("pqp: draining streamed plan: %w", err)
	}
	return out, nil
}

// ExecuteAll evaluates an Intermediate Operation Matrix with every register
// retained and returns them all — the reproduction harness uses it to
// compare each intermediate polygen relation against the paper's Tables
// 4–9.
func (q *PQP) ExecuteAll(iom *translate.Matrix) (map[int]*core.Relation, error) {
	_, regs, err := q.openPlan(iom, execEnv{policy: q.Degrade}, true)
	return regs, err
}

// ExecuteMaterialized is ExecuteAll returning only the final register: the
// plan runs register at a time, each one fully materialized before the next
// row opens.
func (q *PQP) ExecuteMaterialized(iom *translate.Matrix) (*core.Relation, error) {
	regs, err := q.ExecuteAll(iom)
	if err != nil {
		return nil, err
	}
	return regs[iom.Rows[len(iom.Rows)-1].PR], nil
}

// OpenPlan compiles an Intermediate Operation Matrix into a tree of
// streaming cursors and returns the cursor for the final register. The
// caller owns the cursor and must Close it (draining it to completion also
// closes the whole tree). Local rows are opened against their LQPs during
// compilation, in plan order.
func (q *PQP) OpenPlan(iom *translate.Matrix) (core.Cursor, error) {
	cur, _, err := q.openPlan(iom, execEnv{policy: q.Degrade}, false)
	return cur, err
}

// openPlan compiles iom and returns the final register's cursor. In retain
// mode every row is drained into the returned register map as soon as it
// is defined, so no register streams and a redefined register simply
// overwrites its old value; plans that redefine a register always compile
// in retain mode, since a pending cursor would otherwise be clobbered.
// Outside retain mode the map holds only the registers that had to
// materialize.
func (q *PQP) openPlan(iom *translate.Matrix, env execEnv, retain bool) (core.Cursor, map[int]*core.Relation, error) {
	if iom.Cardinality() == 0 {
		return nil, nil, fmt.Errorf("pqp: empty plan")
	}
	// Count how many times each register is consumed; the final register
	// gains one consumer — the caller.
	consumers := make(map[int]int, iom.Cardinality())
	defined := make(map[int]bool, iom.Cardinality())
	for _, row := range iom.Rows {
		if defined[row.PR] {
			retain = true
		}
		defined[row.PR] = true
		for _, o := range [...]translate.Operand{row.LHR, row.RHR} {
			switch o.Kind {
			case translate.OpdReg:
				consumers[o.Reg]++
			case translate.OpdRegs:
				for _, r := range o.Regs {
					consumers[r]++
				}
			}
		}
	}
	last := iom.Rows[len(iom.Rows)-1].PR
	consumers[last]++

	pending := make(map[int]core.Cursor) // single-consumer registers, not yet claimed
	mats := make(map[int]*core.Relation) // drained registers
	closePending := func() {
		for _, c := range pending {
			c.Close()
		}
	}
	takeReg := func(n int) (core.Cursor, error) {
		if c, ok := pending[n]; ok {
			delete(pending, n)
			return c, nil
		}
		if p, ok := mats[n]; ok {
			return core.CursorOf(p), nil
		}
		return nil, fmt.Errorf("register R(%d) not computed", n)
	}

	for _, row := range iom.Rows {
		c, err := q.openRow(row, takeReg, env)
		if err != nil {
			closePending()
			return nil, nil, fmt.Errorf("pqp: executing %s: %w", row, err)
		}
		if !retain && consumers[row.PR] == 1 {
			pending[row.PR] = c
			if q.Trace != nil {
				q.Trace("%-60s -> streamed", row.String())
			}
			continue
		}
		p, err := core.Drain(c)
		if err != nil {
			closePending()
			return nil, nil, fmt.Errorf("pqp: executing %s: %w", row, err)
		}
		mats[row.PR] = p
		if q.Trace != nil {
			q.Trace("%-60s -> %d tuples", row.String(), p.Cardinality())
		}
	}
	if c, ok := pending[last]; ok {
		delete(pending, last)
		closePending() // defensive: a well-formed plan leaves nothing pending
		return c, mats, nil
	}
	closePending()
	return core.CursorOf(mats[last]), mats, nil
}

// openRow builds the cursor for one plan row, claiming its register
// operands through takeReg.
func (q *PQP) openRow(row translate.Row, takeReg func(int) (core.Cursor, error), env execEnv) (core.Cursor, error) {
	if row.EL != "PQP" {
		return q.openLocal(row, env)
	}
	operand := func(o translate.Operand) (core.Cursor, error) {
		if o.Kind != translate.OpdReg {
			return nil, fmt.Errorf("PQP operand must be a register, found %s", o)
		}
		return takeReg(o.Reg)
	}
	binary := func(build func(l, r core.Cursor) (core.Cursor, error)) (core.Cursor, error) {
		l, err := operand(row.LHR)
		if err != nil {
			return nil, err
		}
		r, err := operand(row.RHR)
		if err != nil {
			l.Close()
			return nil, err
		}
		return build(l, r)
	}
	switch row.Op {
	case translate.OpSelect:
		in, err := operand(row.LHR)
		if err != nil {
			return nil, err
		}
		if row.RHA.Kind != translate.CmpConst {
			in.Close()
			return nil, fmt.Errorf("Select requires a constant RHA")
		}
		return q.alg.StreamSelect(in, row.LHA[0], row.Theta, row.RHA.Const)
	case translate.OpRestrict:
		in, err := operand(row.LHR)
		if err != nil {
			return nil, err
		}
		switch row.RHA.Kind {
		case translate.CmpAttr:
			return q.alg.StreamRestrict(in, row.LHA[0], row.Theta, row.RHA.Attr)
		case translate.CmpConst:
			return q.alg.StreamSelect(in, row.LHA[0], row.Theta, row.RHA.Const)
		default:
			in.Close()
			return nil, fmt.Errorf("Restrict requires an RHA")
		}
	case translate.OpProject:
		in, err := operand(row.LHR)
		if err != nil {
			return nil, err
		}
		return q.alg.StreamProject(in, row.LHA)
	case translate.OpJoin:
		return binary(func(l, r core.Cursor) (core.Cursor, error) {
			return q.alg.StreamJoin(l, row.LHA[0], row.Theta, r, row.RHA.Attr)
		})
	case translate.OpMerge:
		if row.LHR.Kind != translate.OpdRegs {
			return nil, fmt.Errorf("Merge requires a register list")
		}
		scheme, ok := q.schema.Scheme(row.Scheme)
		if !ok {
			return nil, fmt.Errorf("Merge row names unknown scheme %q", row.Scheme)
		}
		ins := make([]core.Cursor, 0, len(row.LHR.Regs))
		for _, rn := range row.LHR.Regs {
			c, err := takeReg(rn)
			if err != nil {
				for _, open := range ins {
					open.Close()
				}
				return nil, err
			}
			ins = append(ins, c)
		}
		return q.alg.StreamMerge(scheme, ins...)
	case translate.OpUnion:
		return binary(q.alg.StreamUnion)
	case translate.OpDifference:
		return binary(q.alg.StreamDifference)
	case translate.OpIntersect:
		return binary(q.alg.StreamIntersect)
	case translate.OpProduct:
		return binary(q.alg.StreamProduct)
	default:
		return nil, fmt.Errorf("unsupported PQP operation %q", row.Op)
	}
}

// openLocal opens one LQP-resident row as a tagged stream: the LQP cursor
// is wrapped in a prefetching reader (so retrieval overlaps with PQP work)
// and a tagging cursor that applies domain mappings and attaches the
// execution location as every cell's originating source. Every row opens
// as a plan: a bare operation is the one-step plan, and a row carrying
// optimizer-fused steps pushes them down too, so only the filtered,
// narrowed batches cross the LQP boundary; the tag cursor reconstructs the
// intermediate tags the displaced PQP-side filters would have added.
func (q *PQP) openLocal(row translate.Row, env execEnv) (core.Cursor, error) {
	processor, ok := q.lqps[row.EL]
	if !ok {
		return nil, fmt.Errorf("no LQP for local database %q", row.EL)
	}
	plan, err := localPlan(row)
	if err != nil {
		return nil, err
	}
	rc, err := q.boundLQP(processor, env).OpenPlan(plan)
	if err != nil {
		// An exhausted source degrades (policy permitting) to an empty
		// stream with the columns the operation would have produced; no
		// prefetch needed for a stream with nothing to fetch. Mid-stream
		// exhaustion after a successful open stays fatal under either
		// policy: rows already delivered downstream cannot be recalled,
		// and a partial prefix must never masquerade as the leg's answer.
		plain, derr := q.degrade(row, plan, env, err)
		if derr != nil {
			return nil, derr
		}
		return q.newTagCursor(rel.CursorOf(plain), row.EL, row.LHR.Name, plan.Mediates()), nil
	}
	return q.newTagCursor(rel.Prefetch(rc, prefetchDepth), row.EL, row.LHR.Name, plan.Mediates()), nil
}

// tagCursor turns an LQP's plain rows into polygen rows: each batch is
// domain-mapped and tagged into fresh rows (the input batches may alias a
// live base relation and are never mutated), every column annotated with
// the polygen attribute the schema maps it to. Every cell's origin is the
// execution location {db} (paper §III: "when the execution location is an
// LQP ... it is also used as the originating source tag for each of the
// cells"). The intermediate set is empty for a plain local operation and
// {db} for a mediated pushed-down subplan — one whose pushed steps include
// a Select or Restrict — which is exactly what the displaced PQP-resident
// filters would have added, since every cell of a freshly retrieved
// relation has origin {db}.
type tagCursor struct {
	name   string
	attrs  []core.Attr
	in     rel.Cursor
	fns    []func(rel.Value) rel.Value
	origin sourceset.Set
	inter  sourceset.Set
	out    *core.Relation // arena holder for output rows
}

func (q *PQP) newTagCursor(in rel.Cursor, db, localScheme string, mediated bool) *tagCursor {
	attrs, fns := q.tagPlan(db, localScheme, in.Schema().Names())
	c := &tagCursor{
		name:   localScheme,
		attrs:  attrs,
		in:     in,
		fns:    fns,
		origin: sourceset.Of(q.reg.Intern(db)),
		out:    core.NewRelation(localScheme, q.reg, attrs...),
	}
	if mediated {
		c.inter = c.origin
	}
	return c
}

func (c *tagCursor) Name() string                  { return c.name }
func (c *tagCursor) Attrs() []core.Attr            { return c.attrs }
func (c *tagCursor) Registry() *sourceset.Registry { return c.out.Reg }

func (c *tagCursor) Next() ([]core.Tuple, error) {
	batch, err := c.in.Next()
	if err != nil {
		return nil, err
	}
	rows := make([]core.Tuple, len(batch))
	for bi, t := range batch {
		row := c.out.NewRow(len(t))
		for i, v := range t {
			row[i] = core.Cell{D: c.fns[i](v), O: c.origin, I: c.inter}
		}
		rows[bi] = row
	}
	return rows, nil
}

// NextCol implements core.ColCursor: over a columnar input (a binary wire
// stream behind a prefetch, or a local slice cursor) the plain column batch
// is domain-mapped and tagged column-at-a-time, with the constant origin and
// intermediate sets as two dictionary indexes instead of a Set pair per
// cell. Row inputs are columnarized first.
func (c *tagCursor) NextCol() (*core.ColBatch, error) {
	var rb *rel.ColBatch
	if cc, ok := c.in.(rel.ColCursor); ok {
		b, err := cc.NextCol()
		if err != nil {
			return nil, err
		}
		rb = b
	} else {
		batch, err := c.in.Next()
		if err != nil {
			return nil, err
		}
		rb = rel.FromTuples(c.in.Schema(), batch)
	}
	return core.TagColumns(c.name, c.out.Reg, c.attrs, rb, c.fns, c.origin, c.inter), nil
}

func (c *tagCursor) Close() error { return c.in.Close() }

var _ core.ColCursor = (*tagCursor)(nil)
