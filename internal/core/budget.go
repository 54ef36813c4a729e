package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// ErrOverBudget is the error a budgeted blocking operator returns when its
// resident build or dedup state passes Memory.Budget. Callers match it with
// errors.Is; the wrapping error names the operator and the budget.
var ErrOverBudget = errors.New("over memory budget")

// Memory is the per-algebra memory budget of the blocking hash operators.
// Project, Union, Difference and the equi-Join charge each row their build
// or dedup table keeps resident; an operator whose charge passes Budget
// fails its query with ErrOverBudget. Nothing is written to disk. The zero
// value (or a nil *Memory) sets no bound and charges nothing.
type Memory struct {
	// Budget caps, in bytes, one operator's resident blocking state.
	// <= 0 sets no bound.
	Budget int64
	// Refused counts builds that passed the budget, across every operator
	// sharing the Memory. It is safe for concurrent reads (V$MEM,
	// /metrics).
	Refused atomic.Int64
}

// SetMemory configures the memory budget. It must be called while wiring,
// before the Algebra is shared.
func (a *Algebra) SetMemory(m *Memory) { a.mem = m }

// Memory returns the configured budget, nil if none.
func (a *Algebra) Memory() *Memory { return a.mem }

// budget is one operator build's running charge against the algebra's
// Memory. A nil *budget (no bound configured) charges nothing.
type budget struct {
	mem  *Memory
	op   string
	used int64
}

// budget starts the charge of one build of operator op; nil when the
// algebra has no bound.
func (a *Algebra) budget(op string) *budget {
	if a.mem == nil || a.mem.Budget <= 0 {
		return nil
	}
	return &budget{mem: a.mem, op: op}
}

// charge adds one resident row and fails with ErrOverBudget once the
// build's total passes the budget.
func (b *budget) charge(t Tuple) error {
	b.used += approxTupleBytes(t)
	if b.used <= b.mem.Budget {
		return nil
	}
	b.mem.Refused.Add(1)
	return fmt.Errorf("core: %s: %w of %d bytes", b.op, ErrOverBudget, b.mem.Budget)
}

// approxTupleBytes estimates the resident cost of a tuple: its slice header,
// the cell structs and the string payloads. Tag sets are interned and shared,
// so they are charged at header cost only (inside the cell).
func approxTupleBytes(t Tuple) int64 {
	n := int64(unsafe.Sizeof(Tuple{})) + int64(len(t))*int64(unsafe.Sizeof(Cell{}))
	for _, c := range t {
		n += int64(len(c.D.Str()))
	}
	return n
}
