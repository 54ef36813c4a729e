package pqp

import (
	"sync"
	"time"

	"repro/internal/lqp"
	"repro/internal/rel"
)

// counting wraps an LQP and records what the PQP routed to it, so tests can
// assert that the translator pushed work to the right source (a selection
// executed locally instead of retrieving the whole relation) and how much
// data crossed the boundary.
//
// Latency models a streaming wide-area transfer: each batch the cursor
// yields waits Latency before it is returned, so a subplan that filters 100k
// rows to 40 pays for one batch, and a prefetching consumer overlaps the
// waits with its own work.
type counting struct {
	lqp.LQP
	// Latency is the injected per-batch transfer time (0 = none).
	Latency time.Duration

	mu    sync.Mutex
	ops   []lqp.Op
	plans []lqp.Plan
	cells int64
}

func newCounting(inner lqp.LQP) *counting { return &counting{LQP: inner} }

func (c *counting) record(op lqp.Op, p *lqp.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops = append(c.ops, op)
	if p != nil {
		c.plans = append(c.plans, *p)
	}
}

// Open records op and meters the cursor.
func (c *counting) Open(op lqp.Op) (rel.Cursor, error) {
	c.record(op, nil)
	return c.meter(c.LQP.Open(op))
}

// OpenPlan records the plan's base op as the operation and keeps the plan.
func (c *counting) OpenPlan(p lqp.Plan) (rel.Cursor, error) {
	c.record(p.Ops[0], &p)
	return c.meter(c.LQP.OpenPlan(p))
}

func (c *counting) meter(cur rel.Cursor, err error) (rel.Cursor, error) {
	if err != nil {
		return nil, err
	}
	return &meteredCursor{Cursor: cur, c: c, width: cur.Schema().Len()}, nil
}

// meteredCursor books rows × width cells per batch and delays it by the
// wrapper's latency.
type meteredCursor struct {
	rel.Cursor
	c     *counting
	width int
}

func (m *meteredCursor) Next() ([]rel.Tuple, error) {
	batch, err := m.Cursor.Next()
	if err != nil {
		return nil, err
	}
	m.c.mu.Lock()
	m.c.cells += int64(len(batch) * m.width)
	m.c.mu.Unlock()
	time.Sleep(m.c.Latency)
	return batch, nil
}

// Ops returns a copy of the recorded operations in order.
func (c *counting) Ops() []lqp.Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]lqp.Op(nil), c.ops...)
}

// Plans returns a copy of the pushed-down subplans opened, in order.
func (c *counting) Plans() []lqp.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]lqp.Plan(nil), c.plans...)
}

// CellsTransferred returns rows × columns delivered so far.
func (c *counting) CellsTransferred() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells
}

// Reset clears the recorded operations and the transfer counter.
func (c *counting) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops, c.plans, c.cells = nil, nil, 0
}

// opCount counts the operations of kind k in ops.
func opCount(ops []lqp.Op, k lqp.OpKind) int {
	n := 0
	for _, op := range ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}
