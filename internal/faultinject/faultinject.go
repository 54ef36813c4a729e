// Package faultinject is the chaos harness of the federation: deterministic,
// seeded fault wrappers that make an LQP (Flaky) or a network connection
// (FlakyConn) misbehave on a fixed cadence — injected errors, latency
// spikes, hangs, and mid-stream cuts. The fault-tolerance layer
// (internal/federation) is *proven* against these wrappers: the property
// suites assert that under injected faults, every answer that does arrive is
// cell-for-cell and tag-identical to the fault-free run.
//
// Determinism is the point. Each injection site draws from an atomic
// counter whose phase is rotated by the profile's Seed, so a given
// (profile, seed) pair injects the same multiset of faults on every run —
// a failing chaos test replays. There is no wall-clock or math/rand state
// anywhere in the decision path.
//
// cmd/lqpd wires Flaky behind its -chaos-* flags (serving a deliberately
// unreliable replica over the real wire protocol), and wire.Server.ConnHook
// accepts a FlakyConn wrapper for transport-level cuts that poison gob
// streams mid-exchange.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/lqp"
	"repro/internal/rel"
)

// Profile fixes a Flaky wrapper's fault schedule. Every cadence field is
// "every Nth call, counted from the wrapper's birth, phase-rotated by
// Seed": 0 disables that fault, 1 means every call — a replica with
// ErrEvery=1 is dead, with HangEvery=1 it is hung.
type Profile struct {
	// Seed rotates the phase of every cadence counter, so different seeds
	// fault different calls while keeping each run reproducible.
	Seed int64

	// ErrEvery: every Nth operation (Open/OpenPlan/Relations/Stats)
	// fails immediately with an injected *Error.
	ErrEvery int
	// SlowEvery: every Nth operation sleeps Latency before proceeding
	// normally — a latency spike, not a failure.
	SlowEvery int
	// Latency is the injected spike duration for SlowEvery.
	Latency time.Duration
	// HangEvery: every Nth operation blocks for Hang and then fails — a
	// stalled peer, detectable only by the caller's deadline.
	HangEvery int
	// Hang is the stall duration for HangEvery. Choose it well above the
	// caller's per-call deadline: a hang that returns before the deadline
	// is just a slow call.
	Hang time.Duration
	// CutEvery: every Nth opened stream (Open/OpenPlan) dies with an
	// injected error after CutAfter batches have been delivered.
	CutEvery int
	// CutAfter is how many batches a cut stream yields before dying
	// (0 = dies on the first Next).
	CutAfter int
	// PingErrEvery: every Nth health probe fails. Independent of ErrEvery,
	// except that a dead (ErrEvery=1) or hung (HangEvery=1) replica always
	// fails its probes too — a killed process answers nothing, probes
	// included.
	PingErrEvery int
}

// Error is one injected fault. errors.As against *Error distinguishes
// injected chaos from real failures in assertions.
type Error struct {
	// Kind is the fault class: "error", "hang", "cut" or "ping".
	Kind string
	// Target names the wrapped LQP or connection.
	Target string
	// N is the 1-based call count at which the fault fired.
	N int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault on %s (call %d)", e.Kind, e.Target, e.N)
}

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// hit reports whether the n-th event falls on the cadence, with the phase
// rotated by seed.
func hit(n int64, every int, seed int64) bool {
	if every <= 0 {
		return false
	}
	e := int64(every)
	return (n+seed%e+e)%e == 0
}

// Flaky wraps an LQP with the profile's fault schedule. It implements
// lqp.LQP by forwarding to the wrapped LQP, plus the Ping health probe, so
// it can stand in for a replica anywhere — behind wire.NewServerFor in a chaotic
// lqpd, or directly inside an in-process federation.
//
// Counters of fired faults are exported (Injected) so tests can assert the
// chaos actually happened — a property suite that never injected anything
// proves nothing.
type Flaky struct {
	inner lqp.LQP
	p     Profile

	ops     atomic.Int64
	streams atomic.Int64
	pings   atomic.Int64

	errs  atomic.Int64
	hangs atomic.Int64
	slows atomic.Int64
	cuts  atomic.Int64
}

// New wraps inner with profile p.
func New(inner lqp.LQP, p Profile) *Flaky {
	return &Flaky{inner: inner, p: p}
}

// Name implements lqp.LQP.
func (f *Flaky) Name() string { return f.inner.Name() }

// Injected reports how many faults of each class have fired.
func (f *Flaky) Injected() (errs, hangs, slows, cuts int64) {
	return f.errs.Load(), f.hangs.Load(), f.slows.Load(), f.cuts.Load()
}

// before runs one operation's fault schedule: hang, error or latency spike,
// in that precedence. A non-nil error aborts the operation.
func (f *Flaky) before() error {
	n := f.ops.Add(1)
	switch {
	case hit(n, f.p.HangEvery, f.p.Seed):
		f.hangs.Add(1)
		time.Sleep(f.p.Hang)
		return &Error{Kind: "hang", Target: f.Name(), N: n}
	case hit(n, f.p.ErrEvery, f.p.Seed):
		f.errs.Add(1)
		return &Error{Kind: "error", Target: f.Name(), N: n}
	case hit(n, f.p.SlowEvery, f.p.Seed):
		f.slows.Add(1)
		time.Sleep(f.p.Latency)
	}
	return nil
}

// Relations implements lqp.LQP.
func (f *Flaky) Relations() ([]string, error) {
	if err := f.before(); err != nil {
		return nil, err
	}
	return f.inner.Relations()
}

// Stats implements lqp.LQP.
func (f *Flaky) Stats() ([]lqp.RelationStats, error) {
	if err := f.before(); err != nil {
		return nil, err
	}
	return f.inner.Stats()
}

// Open implements lqp.LQP: one operation is the one-step plan.
func (f *Flaky) Open(op lqp.Op) (rel.Cursor, error) { return f.OpenPlan(lqp.PlanOf(op)) }

// OpenPlan implements lqp.LQP: the plan's fault schedule runs at open time,
// and on the cut cadence the returned cursor dies mid-stream after
// CutAfter batches.
func (f *Flaky) OpenPlan(p lqp.Plan) (rel.Cursor, error) {
	if err := f.before(); err != nil {
		return nil, err
	}
	cur, err := f.inner.OpenPlan(p)
	if err != nil {
		return nil, err
	}
	n := f.streams.Add(1)
	if !hit(n, f.p.CutEvery, f.p.Seed) {
		return cur, nil
	}
	return &cutCursor{in: cur, f: f, left: f.p.CutAfter, n: n}, nil
}

// Ping answers the health probe: a dead or hung replica never answers, and
// the ping cadence can fail probes independently. The deadline d is honored
// for the hung case (the probe blocks no longer than the caller allows).
func (f *Flaky) Ping(d time.Duration) error {
	n := f.pings.Add(1)
	switch {
	case f.p.HangEvery == 1:
		stall := f.p.Hang
		if d > 0 && d < stall {
			stall = d
		}
		time.Sleep(stall)
		return &Error{Kind: "ping", Target: f.Name(), N: n}
	case f.p.ErrEvery == 1, hit(n, f.p.PingErrEvery, f.p.Seed):
		return &Error{Kind: "ping", Target: f.Name(), N: n}
	}
	if pinger, ok := f.inner.(interface{ Ping(time.Duration) error }); ok {
		return pinger.Ping(d)
	}
	return nil
}

// cutCursor delivers `left` batches then dies with an injected error —
// the mid-stream cut every resilient consumer must survive.
type cutCursor struct {
	in   rel.Cursor
	f    *Flaky
	left int
	n    int64
}

func (c *cutCursor) Schema() *rel.Schema { return c.in.Schema() }

func (c *cutCursor) Next() ([]rel.Tuple, error) {
	if c.left <= 0 {
		c.f.cuts.Add(1)
		c.in.Close()
		return nil, &Error{Kind: "cut", Target: c.f.Name(), N: c.n}
	}
	batch, err := c.in.Next()
	if err != nil {
		return nil, err // real EOF or error: pass through
	}
	c.left--
	return batch, nil
}

func (c *cutCursor) Close() error { return c.in.Close() }

// ConnProfile fixes a FlakyConn's transport faults.
type ConnProfile struct {
	// CutAfterReads / CutAfterWrites kill the connection after that many
	// successful Read/Write calls (0 = never). A killed connection returns
	// io.ErrClosedPipe-shaped errors, exactly what a reset peer produces.
	CutAfterReads  int
	CutAfterWrites int
	// ReadDelay / WriteDelay stall each Read/Write — transport latency.
	ReadDelay  time.Duration
	WriteDelay time.Duration
}

// FlakyConn wraps a net.Conn with deterministic transport faults. Wire it
// into wire.Server.ConnHook to cut server-side connections mid-exchange, or
// wrap a dialed conn to poison a client.
type FlakyConn struct {
	net.Conn
	p      ConnProfile
	reads  atomic.Int64
	writes atomic.Int64
	cut    atomic.Bool
}

// WrapConn wraps conn with profile p.
func WrapConn(conn net.Conn, p ConnProfile) *FlakyConn {
	return &FlakyConn{Conn: conn, p: p}
}

// Cut reports whether the connection has been killed by the profile.
func (c *FlakyConn) Cut() bool { return c.cut.Load() }

func (c *FlakyConn) kill() error {
	c.cut.Store(true)
	c.Conn.Close()
	return io.ErrClosedPipe
}

func (c *FlakyConn) Read(b []byte) (int, error) {
	if c.cut.Load() {
		return 0, io.ErrClosedPipe
	}
	if c.p.ReadDelay > 0 {
		time.Sleep(c.p.ReadDelay)
	}
	if n := c.reads.Add(1); c.p.CutAfterReads > 0 && n > int64(c.p.CutAfterReads) {
		return 0, c.kill()
	}
	return c.Conn.Read(b)
}

func (c *FlakyConn) Write(b []byte) (int, error) {
	if c.cut.Load() {
		return 0, io.ErrClosedPipe
	}
	if c.p.WriteDelay > 0 {
		time.Sleep(c.p.WriteDelay)
	}
	if n := c.writes.Add(1); c.p.CutAfterWrites > 0 && n > int64(c.p.CutAfterWrites) {
		return 0, c.kill()
	}
	return c.Conn.Write(b)
}

var (
	_ lqp.LQP  = (*Flaky)(nil)
	_ net.Conn = (*FlakyConn)(nil)
)
