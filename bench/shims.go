package main

// Timing shims: the benchmark's view of each layer boundary, taken from
// outside. A shim forwards every call unchanged and, while the recorder is
// on, brackets it with a span. The same lqpShim stands at three boundaries:
//
//	source: between pqp and federation (the lqp.LQP handed to pqp.New)
//	leg:    between federation and wire.Client (one per lqpd endpoint)
//	lqp:    between wire.Server and the served LQP, inside "lqpd"
//
// With the recorder off a shim costs one atomic load per call.

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/segment"
	"repro/internal/wire"
)

// mediatorShim times wire.Mediator.Query.
type mediatorShim struct {
	wire.Mediator
	rec *recorder
}

func (m *mediatorShim) Query(session, text string, algebraic bool) (ans *wire.MediatedAnswer, err error) {
	parent, ok := m.rec.bySession(session)
	if !ok {
		return m.Mediator.Query(session, text, algebraic)
	}
	sp := m.rec.start("mediator.query", "", parent)
	m.rec.onGoroutine(sp.ref(), func() { ans, err = m.Mediator.Query(session, text, algebraic) })
	var rows int64
	if ans != nil {
		rows = int64(ans.Relation.Cardinality())
	}
	m.rec.finish(sp, rows)
	return ans, err
}

// lqpShim times the streaming calls of one LQP boundary. Execute and
// ExecutePlan pass through untimed: the PQP's streaming engine, which every
// mediator query runs on, opens cursors.
type lqpShim struct {
	wire.LocalLQP
	rec   *recorder
	layer string // "source", "leg" or "lqp"
	label string // source name or endpoint address
}

// enter finds the span that caused a call with base operation op and
// returns the operation as the system wrote it.
func (s *lqpShim) enter(op lqp.Op) (lqp.Op, spanRef, bool) {
	if s.layer == "source" {
		ref, ok := s.rec.byGoroutine()
		return op, ref, ok
	}
	return untagOp(op)
}

// forward is the base operation the next layer down receives: tagged with
// this shim's span, except below the last shim.
func (s *lqpShim) forward(op lqp.Op, ref spanRef) lqp.Op {
	if s.layer == "lqp" {
		return op
	}
	return tagOp(op, ref)
}

func (s *lqpShim) Open(op lqp.Op) (rel.Cursor, error) {
	op, parent, ok := s.enter(op)
	if !ok {
		return s.LocalLQP.Open(op)
	}
	sp := s.rec.start(s.layer+".open", s.label, parent)
	cur, err := s.LocalLQP.Open(s.forward(op, sp.ref()))
	s.rec.finish(sp, 0)
	return s.cursor(cur, sp.ref()), err
}

func (s *lqpShim) OpenPlan(p lqp.Plan) (rel.Cursor, error) {
	if len(p.Ops) == 0 {
		return s.LocalLQP.OpenPlan(p)
	}
	base, parent, ok := s.enter(p.Ops[0])
	if !ok {
		return s.LocalLQP.OpenPlan(withBase(p, base))
	}
	sp := s.rec.start(s.layer+".open", s.label, parent)
	cur, err := s.LocalLQP.OpenPlan(withBase(p, s.forward(base, sp.ref())))
	s.rec.finish(sp, int64(len(p.Ops)))
	return s.cursor(cur, sp.ref()), err
}

// cursor wraps cur so that every Next is a span; the columnar capability of
// cur is kept, so the wire server and the tagging scan take the path they
// take without the shim.
func (s *lqpShim) cursor(cur rel.Cursor, open spanRef) rel.Cursor {
	if cur == nil {
		return nil
	}
	c := cursorShim{Cursor: cur, s: s, open: open}
	if cc, ok := cur.(rel.ColCursor); ok {
		return &colCursorShim{cursorShim: c, cc: cc}
	}
	return &c
}

type cursorShim struct {
	rel.Cursor
	s    *lqpShim
	open spanRef
}

func (c *cursorShim) Next() ([]rel.Tuple, error) {
	sp := c.s.rec.start(c.s.layer+".next", c.s.label, c.open)
	batch, err := c.Cursor.Next()
	c.s.rec.finish(sp, int64(len(batch)))
	return batch, err
}

type colCursorShim struct {
	cursorShim
	cc rel.ColCursor
}

func (c *colCursorShim) NextCol() (*rel.ColBatch, error) {
	sp := c.s.rec.start(c.s.layer+".next", c.s.label, c.open)
	b, err := c.cc.NextCol()
	var rows int64
	if b != nil {
		rows = int64(b.Len())
	}
	c.s.rec.finish(sp, rows)
	return b, err
}

// sourceShim is the lqpShim the PQP sees. The PQP binds a per-query
// diagnostics collector into federation-backed LQPs; Bind keeps the shim in
// the path of the bound view.
type sourceShim struct{ *lqpShim }

func (s sourceShim) Bind(d *federation.Diagnostics) lqp.LQP {
	c, ok := s.LocalLQP.(federation.Collectable)
	if !ok {
		return s
	}
	bound := *s.lqpShim
	bound.LocalLQP = c.Bind(d).(wire.LocalLQP)
	return sourceShim{&bound}
}

// legShim is the lqpShim the federation registry sees in place of a
// wire.Client; it keeps the client's address label and health probe.
type legShim struct {
	*lqpShim
	client *wire.Client
}

func (l legShim) Addr() string               { return l.client.Addr() }
func (l legShim) Ping(d time.Duration) error { return l.client.Ping(d) }

// storeShim is the lqpShim a durable lqpd serves; it also times Insert. The
// client span of an insert is found by the batch's first key, which the
// generator never repeats.
type storeShim struct {
	*lqpShim
	ins lqp.Inserter
}

func (s storeShim) Insert(relation string, tuples []rel.Tuple) (err error) {
	if !s.rec.on.Load() || len(tuples) == 0 || len(tuples[0]) == 0 {
		return s.ins.Insert(relation, tuples)
	}
	parent, ok := s.rec.inserts.Load(tuples[0][0].Str())
	if !ok {
		return s.ins.Insert(relation, tuples)
	}
	sp := s.rec.start("store.insert", s.label, parent.(spanRef))
	s.rec.onGoroutine(sp.ref(), func() { err = s.ins.Insert(relation, tuples) })
	s.rec.finish(sp, int64(len(tuples)))
	return err
}

// connProbe counts what crosses one group of servers ("front": the
// mediator's listener, "back": the lqpd listeners).
type connProbe struct {
	conns atomic.Int64
	bytes atomic.Int64
}

// hook is a wire.Server.ConnHook.
func (p *connProbe) hook(c net.Conn) net.Conn {
	p.conns.Add(1)
	return &countedConn{Conn: c, bytes: &p.bytes}
}

type countedConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// storeProbe watches one store's files from outside: the write-ahead log
// through store.Options.WrapFile, and the snapshot each compaction writes by
// its size on disk when the next log is opened.
type storeProbe struct {
	rec   *recorder
	label string

	writes       atomic.Int64
	writtenBytes atomic.Int64
	syncs        atomic.Int64

	mu          sync.Mutex
	compactions []int64 // recorder clock of every log rotation after the first open
	opened      bool
}

// wrapFile is a store.Options.WrapFile.
func (p *storeProbe) wrapFile(f *os.File) segment.File {
	p.mu.Lock()
	if p.opened {
		p.compactions = append(p.compactions, p.rec.now())
	}
	p.opened = true
	p.mu.Unlock()
	// The store writes snap-<gen> just before it opens wal-<gen>.seg.
	if gen, ok := walGeneration(f.Name()); ok {
		if fi, err := os.Stat(snapshotPath(f.Name(), gen)); err == nil {
			p.writtenBytes.Add(fi.Size())
		}
	}
	return &fileShim{File: f, p: p}
}

type fileShim struct {
	segment.File
	p *storeProbe
}

func (f *fileShim) Write(b []byte) (int, error) {
	parent, traced := f.p.rec.byGoroutine()
	var sp *span
	if traced {
		sp = f.p.rec.start("file.write", f.p.label, parent)
	}
	n, err := f.File.Write(b)
	f.p.writes.Add(1)
	f.p.writtenBytes.Add(int64(n))
	if traced {
		f.p.rec.finish(sp, int64(n))
	}
	return n, err
}

// Sync records a span even off an insert's goroutine (the interval syncer),
// so that store.sync_ms_p50 sees every fsync of the traced run.
func (f *fileShim) Sync() error {
	var sp *span
	if f.p.rec.on.Load() {
		parent, _ := f.p.rec.byGoroutine()
		sp = f.p.rec.start("file.sync", f.p.label, parent)
	}
	err := f.File.Sync()
	f.p.syncs.Add(1)
	if sp != nil {
		f.p.rec.finish(sp, 0)
	}
	return err
}
