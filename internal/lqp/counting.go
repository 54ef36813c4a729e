package lqp

import (
	"sync"
	"time"

	"repro/internal/rel"
)

// Counting wraps an LQP and counts the operations routed to it, optionally
// injecting latency. It serves two purposes: tests use it to assert that
// the translator pushed work to the right LQP (e.g. that a selection
// executed locally instead of retrieving the whole relation), and
// benchmarks use the latency injection to model wide-area local databases —
// the paper's federation spanned the US, England and Canada.
//
// Latency models a streaming transfer: it is charged once per
// rel.DefaultBatchSize batch of result rows (minimum one batch), not once
// per operation — a 100k-tuple Retrieve over a wide-area link costs
// hundreds of batch times, not one. Crucially, only the rows the LQP
// actually returns are charged: a pushed-down subplan that filters 100k
// rows to 40 pays for 40, which is exactly the transfer saving the
// cost-based optimizer exists to win (B-OPT measures it). Each batch pays
// as it is pulled, so a prefetching consumer overlaps the waits with its
// own work.
//
// Alongside the latency model, Counting tracks the simulated transfer
// volume: Rows/Cells transferred across the boundary (cells ≈ bytes for a
// fixed value width). The B-OPT benchmarks report both.
type Counting struct {
	inner LQP
	// Latency is the injected per-batch transfer time (0 = none).
	Latency time.Duration

	mu     sync.Mutex
	counts map[OpKind]int
	ops    []Op
	plans  []Plan
	rows   int64
	cells  int64
}

// NewCounting wraps inner.
func NewCounting(inner LQP) *Counting {
	return &Counting{inner: inner, counts: make(map[OpKind]int)}
}

// Name implements LQP.
func (c *Counting) Name() string { return c.inner.Name() }

// Relations implements LQP.
func (c *Counting) Relations() ([]string, error) { return c.inner.Relations() }

// Stats implements LQP.
func (c *Counting) Stats() ([]RelationStats, error) { return c.inner.Stats() }

func (c *Counting) record(op Op) {
	c.mu.Lock()
	c.counts[op.Kind]++
	c.ops = append(c.ops, op)
	c.mu.Unlock()
}

// recordTransfer books rows × width transferred cells.
func (c *Counting) recordTransfer(rows, width int) {
	c.mu.Lock()
	c.rows += int64(rows)
	c.cells += int64(rows * width)
	c.mu.Unlock()
}

// recordPlan books a plan: the base op counts as an operation (it is what
// crosses the request wire), the pushed steps are kept for inspection.
func (c *Counting) recordPlan(p Plan) {
	c.record(p.Base())
	c.mu.Lock()
	c.plans = append(c.plans, p)
	c.mu.Unlock()
}

// Open implements LQP, recording the operation once and charging Latency
// and transfer volume per batch as the cursor is pulled.
func (c *Counting) Open(op Op) (rel.Cursor, error) {
	c.record(op)
	cur, err := c.inner.Open(op)
	return c.meterCursor(cur, err)
}

// OpenPlan implements LQP, recording the pushed plan: only batches of
// filtered rows pay.
func (c *Counting) OpenPlan(p Plan) (rel.Cursor, error) {
	c.recordPlan(p)
	cur, err := c.inner.OpenPlan(p)
	return c.meterCursor(cur, err)
}

func (c *Counting) meterCursor(cur rel.Cursor, err error) (rel.Cursor, error) {
	if err != nil {
		if c.Latency > 0 {
			time.Sleep(c.Latency)
		}
		return nil, err
	}
	return &meteredCursor{in: cur, c: c, width: cur.Schema().Len()}, nil
}

// meteredCursor delays every batch by the wrapper's latency and books its
// transfer volume, modeling per-batch wide-area transfer of exactly the
// rows that cross the boundary.
type meteredCursor struct {
	in    rel.Cursor
	c     *Counting
	width int
}

func (m *meteredCursor) Schema() *rel.Schema { return m.in.Schema() }

func (m *meteredCursor) Next() ([]rel.Tuple, error) {
	batch, err := m.in.Next()
	if err != nil {
		return nil, err // end-of-stream and errors carry no rows to transfer
	}
	m.c.recordTransfer(len(batch), m.width)
	if m.c.Latency > 0 {
		time.Sleep(m.c.Latency)
	}
	return batch, nil
}

func (m *meteredCursor) Close() error { return m.in.Close() }

// Count returns how many operations of kind k have executed.
func (c *Counting) Count(k OpKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

// Total returns the total number of executed operations.
func (c *Counting) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// Ops returns a copy of the executed operations in order.
func (c *Counting) Ops() []Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Op(nil), c.ops...)
}

// Plans returns a copy of the pushed-down subplans executed, in order.
func (c *Counting) Plans() []Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Plan(nil), c.plans...)
}

// RowsTransferred returns the number of result rows that crossed the
// simulated wide-area boundary.
func (c *Counting) RowsTransferred() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows
}

// CellsTransferred returns rows × columns delivered — the simulated
// bytes-on-wire metric of the B-OPT benchmarks (cells are
// fixed-width-equivalent).
func (c *Counting) CellsTransferred() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells
}

// Reset clears the recorded operations and transfer counters.
func (c *Counting) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts = make(map[OpKind]int)
	c.ops = nil
	c.plans = nil
	c.rows = 0
	c.cells = 0
}

var _ LQP = (*Counting)(nil)
