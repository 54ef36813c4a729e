// Package wire implements the network protocols of the polygen federation:
// between the Polygen Query Processor and remote Local Query Processors
// (paper, Figure 1: the PQP "routes [local queries] to the Local Query
// Processors"), and between thin clients and a mediator service wrapping a
// whole PQP (query.go — the paper's §V System P made networkable). Both are
// messages over TCP in two shapes:
//
//   - request/response: one request carries a metadata query ("name",
//     "relations", "stats"), an insert, or — on a mediator server — a whole
//     polygen query; one response carries the statistics, the tagged
//     answer, or an error.
//   - streaming: an "openplan" (one lqp.Plan; a bare local operation is
//     the one-step plan) or mediator "queryopen" request is answered by a
//     schema header followed by binary columnar frames and a final done
//     frame, on a connection dedicated to that stream. The server starts
//     framing as soon as the plan yields rows, so remote retrieval overlaps
//     with client-side work; a plan evaluates entirely server-side, so only
//     the filtered, narrowed rows are framed at all.
//
// Result rows always travel as binary columnar frames: plain ones
// (rel/codec.go) on the LQP streams, source-tagged ones (core/codec.go) on
// the mediator's streams and in its unary "query" answer. Plain frames are
// also the write-ahead log's insert records. gob carries the
// control fields around them (requests, response headers, the frame
// envelope) and insert rows; a frame rides the envelope as one opaque byte
// slice, because a gob decoder reads ahead and cannot share a connection
// with raw interleaved bytes.
//
// Both directions guard against stalled peers: the client sets read/write
// deadlines around every exchange and every frame, the server sets write
// deadlines (and an optional idle read deadline), and transport errors
// close the connection — a wedged peer fails a federation query instead of
// hanging it forever.
//
// Server serves a catalog.Database (NewServer) and/or fronts a mediator
// (NewMediatorServer); Client implements lqp.LQP, so the PQP — and the
// cost-based optimizer behind it — is oblivious to whether an LQP is
// in-process or remote. A Client holds a bounded pool of connections
// (DefaultMaxConns; DialPool sizes it), so concurrent Stats, Insert and
// Query round trips against one server proceed in parallel instead of
// serializing on a single gob stream, and a transport failure poisons only
// the connection it happened on. Streams
// always run on their own dedicated connection, outside the pool.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// DefaultTimeout is the deadline applied to wire reads and writes when the
// Client or Server does not set its own: long enough for a big batch over a
// wide-area link, short enough that a dead peer cannot wedge a query.
const DefaultTimeout = 2 * time.Minute

// DefaultMaxConns is the connection-pool bound of a Client built by Dial:
// enough parallelism for a PQP fanning concurrent round trips at one LQP
// (or a handful of shell sessions sharing a mediator client) without
// letting one client monopolize a server's accept queue.
const DefaultMaxConns = 4

// request is one client→server message.
type request struct {
	// Kind selects the operation: "name", "relations", "stats",
	// "openplan", "insert" against an LQP server;
	// "session", "endsession", "query", "queryopen" against a mediator
	// server; "ping" against either (the health-check probe: the cheapest
	// possible round trip, answered without touching the database or the
	// mediator).
	Kind string
	// Relation is the target relation for Kind == "insert".
	Relation string
	// Tuples carries the rows for Kind == "insert".
	Tuples []rel.Tuple
	// Plan is the local plan for Kind == "openplan": the whole pipeline
	// evaluates server-side and only the filtered, narrowed rows cross the
	// wire — the transfer saving the cost-based optimizer plans for.
	Plan lqp.Plan
	// Session carries the session ID for mediator requests ("" runs the
	// query sessionless).
	Session string
	// Text is the polygen query for Kind == "query" / "queryopen".
	Text string
	// Algebraic selects the algebra parser instead of the SQL front end for
	// Kind == "query" / "queryopen".
	Algebraic bool
	// Policy is the degradation policy a "session" request asks for
	// ("", "fail" or "partial"); the mediator's default applies when empty.
	Policy string
}

// response is one server→client message.
type response struct {
	Err       string
	Name      string
	Relations []string
	// Attrs / HasRel are the schema header of an "openplan" stream; the
	// rows follow in frames.
	Attrs  []rel.Attr
	HasRel bool
	// Stats carries the per-relation statistics for Kind == "stats".
	Stats []lqp.RelationStats
	// Session / Schemes answer a "session" request (query.go).
	Session SessionInfo
	// Poly / HasPoly head a source-tagged answer: a "query" answer's rows
	// follow in Bin, a "queryopen" stream's in frames.
	Poly    flatPoly
	HasPoly bool
	// Bin is a "query" answer's rows as one tagged columnar frame.
	Bin []byte
	// PlanRows is the executed (optimized) plan, one row per line, for
	// mediator queries.
	PlanRows []string
	// CacheHit reports that the mediator answered from its plan cache.
	CacheHit bool
	// Diag is the query's fault-handling record (retries, hedges, replicas
	// used, and — under the partial degradation policy — the sources the
	// answer is missing) for mediator "query" answers.
	Diag federation.Report
}

// frame is one row batch of a streamed result. A stream is a response
// carrying the schema followed by frames until Done or Err.
type frame struct {
	Err  string
	Done bool
	// Diag rides the Done frame of a "queryopen" stream: the query's final
	// fault-handling record, complete only once the answer has fully
	// streamed (mid-stream failovers count into it).
	Diag federation.Report
	// Bin carries one binary columnar frame: plain rows (rel.AppendFrame)
	// on an "openplan" stream, source-tagged rows (core.AppendFrame)
	// on a "queryopen" one.
	Bin []byte
}

// LocalLQP is the LQP a Server serves.
type LocalLQP = lqp.LQP

// Server exposes one local database as an LQP, a mediator as a query
// service, or both, over TCP.
type Server struct {
	local    LocalLQP
	mediator Mediator

	// ConnHook, when set, wraps every accepted connection before it is
	// served — the fault-injection harness uses it to cut, stall or delay
	// the transport mid-exchange (faultinject.FlakyConn). Set before Listen.
	ConnHook func(net.Conn) net.Conn

	// WriteTimeout bounds every response or frame write (defaults to
	// DefaultTimeout); a client that stops reading gets its connection
	// dropped instead of blocking the serving goroutine forever.
	WriteTimeout time.Duration
	// IdleTimeout, when positive, bounds the wait for the next request on a
	// connection; idle clients beyond it are disconnected. Zero (the
	// default) keeps idle connections open indefinitely — the PQP holds
	// pooled connections per LQP across queries.
	IdleTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	active   sync.WaitGroup
}

// NewServer returns an LQP server for db.
func NewServer(db *catalog.Database) *Server {
	return NewServerFor(lqp.NewLocal(db))
}

// NewServerFor returns an LQP server for any LQP — the seam
// the fault-injection harness uses to serve a faultinject.Flaky-wrapped
// database (cmd/lqpd's -chaos-* flags).
func NewServerFor(l LocalLQP) *Server {
	return &Server{local: l, WriteTimeout: DefaultTimeout, conns: make(map[net.Conn]struct{})}
}

// NewMediatorServer returns a server fronting m: it answers "session",
// "query" and "queryopen" requests (plus "name" with the federation name)
// and refuses the LQP operation kinds — a mediator exposes answers, not its
// local databases.
func NewMediatorServer(m Mediator) *Server {
	return &Server{mediator: m, WriteTimeout: DefaultTimeout, conns: make(map[net.Conn]struct{})}
}

// serverName is what a "name" request answers: the local database for an
// LQP server, the federation name for a mediator server.
func (s *Server) serverName() string {
	if s.local != nil {
		return s.local.Name()
	}
	if s.mediator != nil {
		return s.mediator.Federation()
	}
	return ""
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and begins accepting
// connections in a background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.ConnHook != nil {
			conn = s.ConnHook(conn)
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// beginRequest marks one request in flight, unless the server is draining
// or closed — then the request is refused and the connection dropped.
// Shutdown waits for every in-flight request (including open streams) to
// finish before tearing connections down.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return false
	}
	s.active.Add(1)
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		var req request
		if err := dec.Decode(&req); err != nil {
			return // client went away, stalled or sent garbage; drop the connection
		}
		if !s.beginRequest() {
			return // draining: finish nothing new on this connection
		}
		err := s.dispatch(conn, enc, req)
		s.active.Done()
		if err != nil {
			return // transport failure; the connection is poisoned
		}
	}
}

// dispatch serves one decoded request. The returned error is non-nil only
// for transport failures; application errors travel in responses.
func (s *Server) dispatch(conn net.Conn, enc *gob.Encoder, req request) error {
	switch req.Kind {
	case "openplan", "queryopen":
		return s.serveStream(conn, enc, req)
	default:
		return s.send(conn, enc, s.handle(req))
	}
}

// send encodes one message under the write deadline.
func (s *Server) send(conn net.Conn, enc *gob.Encoder, msg any) error {
	timeout := s.WriteTimeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	return enc.Encode(msg)
}

// stream is one answer a server streams: its header response, and the
// cursor behind its frames.
type stream struct {
	header response
	// next appends the next batch's binary frame to buf; io.EOF ends the
	// stream.
	next func(buf []byte) ([]byte, error)
	// diag, when set, is called once the last batch has gone out; its
	// record rides the done frame.
	diag  func() federation.Report
	close func() error
}

// serveStream answers one stream request: the header response, then one
// binary frame per batch, then a done frame. An error before the first
// batch is reported in the header, one mid-stream in an error frame. The
// encode buffer is reused across frames (gob copies the bytes into the
// envelope). The returned error is non-nil only for transport failures.
func (s *Server) serveStream(conn net.Conn, enc *gob.Encoder, req request) error {
	open := s.openLocalStream
	if req.Kind == "queryopen" {
		open = s.openQueryStream
	}
	st, err := open(req)
	if err != nil {
		return s.send(conn, enc, response{Err: err.Error()})
	}
	defer st.close()
	if err := s.send(conn, enc, st.header); err != nil {
		return err
	}
	var buf []byte
	for {
		buf, err = st.next(buf[:0])
		if err == io.EOF {
			done := frame{Done: true}
			if st.diag != nil {
				done.Diag = st.diag()
			}
			return s.send(conn, enc, done)
		}
		if err != nil {
			return s.send(conn, enc, frame{Err: err.Error()})
		}
		if err := s.send(conn, enc, frame{Bin: buf}); err != nil {
			return err
		}
	}
}

// openLocalStream opens an "openplan" stream over the served LQP: the
// schema in the header, plain columnar frames after it.
func (s *Server) openLocalStream(req request) (stream, error) {
	if s.local == nil {
		return stream{}, fmt.Errorf("wire: server %q does not serve local operations", s.serverName())
	}
	cur, err := s.local.OpenPlan(req.Plan)
	if err != nil {
		return stream{}, err
	}
	schema := cur.Schema()
	cc, _ := cur.(rel.ColCursor)
	next := func(buf []byte) ([]byte, error) {
		cb, err := nextRelColBatch(cur, cc, schema)
		if err != nil {
			return buf, err
		}
		return rel.AppendFrame(buf, cb), nil
	}
	return stream{header: response{Attrs: schema.Attrs(), HasRel: true}, next: next, close: cur.Close}, nil
}

// nextRelColBatch pulls the next batch in columnar form: natively from a
// columnar cursor, otherwise by columnarizing the row batch.
func nextRelColBatch(cur rel.Cursor, cc rel.ColCursor, schema *rel.Schema) (*rel.ColBatch, error) {
	if cc != nil {
		return cc.NextCol()
	}
	batch, err := cur.Next()
	if err != nil {
		return nil, err
	}
	return rel.FromTuples(schema, batch), nil
}

func (s *Server) handle(req request) response {
	switch req.Kind {
	case "name", "ping":
		// "ping" is the health-check probe: answered from memory, without
		// touching the database or the mediator, so it measures liveness and
		// transport alone.
		return response{Name: s.serverName()}
	case "session", "endsession", "query":
		return s.handleMediator(req)
	}
	if s.local == nil {
		return response{Err: fmt.Sprintf("wire: server %q does not serve local operations (request kind %q)", s.serverName(), req.Kind)}
	}
	switch req.Kind {
	case "relations":
		rels, err := s.local.Relations()
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Relations: rels}
	case "stats":
		st, err := s.local.Stats()
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Stats: st}
	case "insert":
		ins, ok := s.local.(lqp.Inserter)
		if !ok {
			return response{Err: fmt.Sprintf("wire: server %q does not accept writes", s.serverName())}
		}
		if err := ins.Insert(req.Relation, req.Tuples); err != nil {
			return response{Err: err.Error()}
		}
		return response{Name: s.serverName()}
	default:
		return response{Err: fmt.Sprintf("wire: unknown request kind %q", req.Kind)}
	}
}

// Close stops accepting and tears down open connections, in-flight or not.
// It is idempotent; Shutdown is the graceful variant.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
		if errors.Is(err, net.ErrClosed) {
			err = nil // Shutdown already stopped the listener
		}
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// Shutdown drains the server: it stops accepting connections and requests,
// waits up to d for the requests already in flight — including open streams
// — to complete, then closes everything. A non-positive d waits without
// bound. The error reports a blown deadline (connections were cut with
// requests still running); Shutdown after Close (or a second Shutdown) is a
// no-op.
func (s *Server) Shutdown(d time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.listener
	s.mu.Unlock()
	if ln != nil {
		ln.Close() // stop accepting; acceptLoop exits
	}
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	timedOut := false
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			timedOut = true
		}
	} else {
		<-done
	}
	err := s.Close()
	if timedOut {
		return fmt.Errorf("wire: shutdown deadline %v expired with requests in flight", d)
	}
	return err
}

// Client is a remote LQP or a mediator-service client. It holds a bounded
// pool of TCP connections: concurrent round trips (Stats, Insert, Query,
// ...) each check a connection out of the pool, dialing new
// ones up to the bound and queueing beyond it, so calls against one server
// proceed in parallel instead of serializing on a single gob stream. A
// transport failure closes only the connection it happened on; the next
// call dials afresh. Streams (Open, OpenPlan, OpenQuery) run on a dedicated
// connection per stream, outside the pool, so several streams and the
// request/response traffic never block each other; Close tears stream
// connections down too, so an in-flight stream fails fast instead of
// leaking.
type Client struct {
	// Timeout bounds every wire read and write: the initial exchange of a
	// round trip, and each frame of a stream. Zero means DefaultTimeout.
	// Set it before sharing the client across goroutines.
	Timeout time.Duration
	// Reg interns the source tags of mediator query results. Dial installs
	// a fresh registry; replace it (before first use) to share one registry
	// across clients.
	Reg *sourceset.Registry

	addr     string
	name     string
	maxConns int

	mu      sync.Mutex
	cond    *sync.Cond
	idle    []*clientConn
	live    map[net.Conn]struct{} // every pooled conn, checked out or idle
	nconns  int
	closed  bool
	streams map[net.Conn]struct{} // dedicated per-stream conns
}

// clientConn is one pooled connection with its gob codecs.
type clientConn struct {
	conn net.Conn
	dec  *gob.Decoder
	enc  *gob.Encoder
}

// Dial connects with a DefaultMaxConns connection pool and caches the
// remote server name.
func Dial(addr string) (*Client, error) {
	return DialPool(addr, DefaultMaxConns)
}

// DialPool connects with a connection pool bounded to maxConns (values < 1
// mean 1: the pre-pool single-connection behavior).
func DialPool(addr string, maxConns int) (*Client, error) {
	c := newClient(addr, maxConns)
	resp, err := c.roundTrip(request{Kind: "name"})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.name = resp.Name
	return c, nil
}

// newClient builds an unconnected client; connections are dialed lazily by
// the pool.
func newClient(addr string, maxConns int) *Client {
	if maxConns < 1 {
		maxConns = 1
	}
	c := &Client{
		addr:     addr,
		maxConns: maxConns,
		Reg:      sourceset.NewRegistry(),
		live:     make(map[net.Conn]struct{}),
		streams:  make(map[net.Conn]struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

func (c *Client) errClosed() error {
	return fmt.Errorf("wire: client for %s is closed", c.addr)
}

// dialConn opens one pooled connection.
func (c *Client) dialConn() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout())
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	return &clientConn{conn: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(conn)}, nil
}

// acquire checks a connection out of the pool: an idle one if available, a
// fresh dial while under the bound, otherwise it waits for a release.
// reused reports that the connection sat idle in the pool — it may have
// been dropped by the server since (idle timeout, restart), so a transport
// failure on it is retriable.
func (c *Client) acquire() (cc *clientConn, reused bool, err error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, false, c.errClosed()
		}
		if n := len(c.idle); n > 0 {
			cc := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			return cc, true, nil
		}
		if c.nconns < c.maxConns {
			c.nconns++
			c.mu.Unlock()
			cc, err := c.dialConn()
			c.mu.Lock()
			if err != nil {
				c.nconns--
				c.cond.Signal()
				c.mu.Unlock()
				return nil, false, err
			}
			if c.closed {
				c.nconns--
				c.cond.Signal()
				c.mu.Unlock()
				cc.conn.Close()
				return nil, false, c.errClosed()
			}
			c.live[cc.conn] = struct{}{}
			c.mu.Unlock()
			return cc, false, nil
		}
		c.cond.Wait()
	}
}

// release returns a connection to the pool, or retires it when the exchange
// failed (a transport error poisons the gob stream) or the client closed.
func (c *Client) release(cc *clientConn, broken bool) {
	c.mu.Lock()
	if broken || c.closed {
		c.nconns--
		delete(c.live, cc.conn)
		c.cond.Signal()
		c.mu.Unlock()
		cc.conn.Close()
		return
	}
	c.idle = append(c.idle, cc)
	c.cond.Signal()
	c.mu.Unlock()
}

func (c *Client) roundTrip(req request) (response, error) {
	resp, reused, err := c.roundTripOnce(req)
	if err != nil && reused && req.Kind != "endsession" && req.Kind != "insert" {
		// The failure happened on a connection that sat idle in the pool —
		// the server may have dropped it (idle timeout, restart) before the
		// request ever ran. The sibling idle connections are almost surely
		// stale from the same event, so flush them all and retry once; the
		// retry then dials fresh instead of drawing the next stale conn.
		// Every request kind is safe to replay except "endsession" (a
		// replayed close would mis-report an already-closed session) and
		// "insert" (the server may have applied the write before the
		// response was lost; a replay could double-apply, so the caller
		// gets the ambiguous transport error instead);
		// "session" is replay-tolerant in the weak sense that a lost
		// response orphans one server-side session until its idle expiry.
		c.flushIdle()
		resp, _, err = c.roundTripOnce(req)
	}
	if err != nil {
		return response{}, err
	}
	if resp.Err != "" {
		return response{}, errors.New(resp.Err)
	}
	return resp, nil
}

// flushIdle retires every idle pooled connection — called when one of them
// turned out stale, which means its siblings (dropped by the same server
// event) almost surely are too.
func (c *Client) flushIdle() {
	c.mu.Lock()
	stale := c.idle
	c.idle = nil
	for _, cc := range stale {
		c.nconns--
		delete(c.live, cc.conn)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cc := range stale {
		cc.conn.Close()
	}
}

// roundTripOnce performs one request/response exchange on one pooled
// connection. The returned error is transport-level only (application
// errors travel in resp.Err); reused reports the connection came from the
// idle pool, making a transport failure retriable.
func (c *Client) roundTripOnce(req request) (response, bool, error) {
	cc, reused, err := c.acquire()
	if err != nil {
		return response{}, false, err
	}
	// A transport failure (including a blown deadline) poisons this
	// connection's gob stream; retire it so a stalled server cannot wedge
	// the pool, and let the next call dial afresh.
	cc.conn.SetDeadline(time.Now().Add(c.timeout()))
	if err := cc.enc.Encode(req); err != nil {
		c.release(cc, true)
		return response{}, reused, fmt.Errorf("wire: send to %s: %w", c.addr, err)
	}
	var resp response
	if err := cc.dec.Decode(&resp); err != nil {
		c.release(cc, true)
		if errors.Is(err, io.EOF) {
			return response{}, reused, fmt.Errorf("wire: server %s closed connection", c.addr)
		}
		return response{}, reused, fmt.Errorf("wire: receive from %s: %w", c.addr, err)
	}
	cc.conn.SetDeadline(time.Time{})
	c.release(cc, false)
	return resp, reused, nil
}

// Name implements lqp.LQP.
func (c *Client) Name() string { return c.name }

// Addr returns the endpoint address the client dials — the label the
// federation layer uses to name replicas in health reports and diagnostics.
func (c *Client) Addr() string { return c.addr }

// Ping performs one health-check round trip bounded by d (<= 0 means the
// client's Timeout): dial, "ping", response, close — always on a fresh,
// dedicated connection. Probing outside the pool keeps a health check
// honest (a wedged pool would otherwise block the probe that is supposed
// to detect the wedge) and exercises the same dial path a failover would.
func (c *Client) Ping(d time.Duration) error {
	if d <= 0 {
		d = c.timeout()
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return c.errClosed()
	}
	conn, err := net.DialTimeout("tcp", c.addr, d)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(d))
	if err := gob.NewEncoder(conn).Encode(request{Kind: "ping"}); err != nil {
		return fmt.Errorf("wire: send to %s: %w", c.addr, err)
	}
	var resp response
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		return fmt.Errorf("wire: receive from %s: %w", c.addr, err)
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Relations implements lqp.LQP.
func (c *Client) Relations() ([]string, error) {
	resp, err := c.roundTrip(request{Kind: "relations"})
	if err != nil {
		return nil, err
	}
	return resp.Relations, nil
}

// Insert implements lqp.Inserter over the wire: a nil return means the
// server acknowledged the write (durably, if it serves a -data-dir store
// with fsync=always). A transport error leaves the outcome unknown — the
// request is never replayed on a retried connection, because the server may
// have applied it before the response was lost.
func (c *Client) Insert(relation string, tuples []rel.Tuple) error {
	_, err := c.roundTrip(request{Kind: "insert", Relation: relation, Tuples: tuples})
	return err
}

// Stats implements lqp.LQP over the wire.
func (c *Client) Stats() ([]lqp.RelationStats, error) {
	resp, err := c.roundTrip(request{Kind: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Open implements lqp.LQP: one operation is the one-step plan.
func (c *Client) Open(op lqp.Op) (rel.Cursor, error) { return c.OpenPlan(lqp.PlanOf(op)) }

// OpenPlan implements lqp.LQP: the plan is evaluated remotely and its rows
// arrive as frames on a connection dedicated to this stream, so the server
// transfers ahead (into the sockets' buffers) while the caller consumes —
// remote retrieval overlaps with PQP-side work. The cursor must be closed;
// an abandoned stream only costs its own connection, and Client.Close
// tears it down with the rest.
func (c *Client) OpenPlan(p lqp.Plan) (rel.Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r, resp, err := c.startStream(request{Kind: "openplan", Plan: p})
	if err != nil {
		return nil, err
	}
	schema, err := rel.MakeSchema(resp.Attrs...)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("wire: stream header from %s: %w", c.addr, err)
	}
	return &streamCursor{frameReader: r, schema: schema}, nil
}

// startStream dials a dedicated connection, registers it with the client
// (so Close can abort the stream), sends req and decodes the header
// response. On error nothing stays registered or open.
func (c *Client) startStream(req request) (frameReader, response, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return frameReader{}, response{}, c.errClosed()
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout())
	if err != nil {
		return frameReader{}, response{}, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return frameReader{}, response{}, c.errClosed()
	}
	c.streams[conn] = struct{}{}
	c.mu.Unlock()
	fail := func(err error) (frameReader, response, error) {
		c.unregisterStream(conn)
		conn.Close()
		return frameReader{}, response{}, err
	}
	dec := gob.NewDecoder(conn)
	conn.SetDeadline(time.Now().Add(c.timeout()))
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return fail(fmt.Errorf("wire: send to %s: %w", c.addr, err))
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		return fail(fmt.Errorf("wire: receive from %s: %w", c.addr, err))
	}
	if resp.Err != "" {
		return fail(errors.New(resp.Err))
	}
	hasHeader := resp.HasRel
	if req.Kind == "queryopen" {
		hasHeader = resp.HasPoly
	}
	if !hasHeader {
		return fail(fmt.Errorf("wire: %s response carried no schema", req.Kind))
	}
	return frameReader{client: c, conn: conn, dec: dec, timeout: c.timeout()}, resp, nil
}

func (c *Client) unregisterStream(conn net.Conn) {
	c.mu.Lock()
	delete(c.streams, conn)
	c.mu.Unlock()
}

// frameReader reads the frames of one stream off its dedicated connection.
// Both stream cursors embed it; they differ only in how a frame's payload
// decodes (readBatch's decode).
type frameReader struct {
	client  *Client
	conn    net.Conn
	dec     *gob.Decoder
	timeout time.Duration
	done    bool
	closed  bool
	// diag is the record the Done frame carried (hasDiag once it arrived).
	diag    federation.Report
	hasDiag bool
}

// readBatch reads frames until one decodes to a non-empty batch, and
// returns io.EOF once the Done frame arrives. A transport or decode
// failure closes the stream.
func readBatch[B interface{ Len() int }](r *frameReader, decode func(payload []byte) (B, error)) (B, error) {
	var none B
	if r.done || r.closed {
		return none, io.EOF
	}
	for {
		r.conn.SetReadDeadline(time.Now().Add(r.timeout))
		var f frame
		if err := r.dec.Decode(&f); err != nil {
			return none, r.fail("receive frame", err)
		}
		switch {
		case f.Err != "":
			r.done = true
			return none, errors.New(f.Err)
		case f.Done:
			r.done = true
			r.diag, r.hasDiag = f.Diag, true
			return none, io.EOF
		case len(f.Bin) > 0:
			b, err := decode(f.Bin)
			if err != nil {
				return none, r.fail("decode frame", err)
			}
			if b.Len() > 0 {
				return b, nil
			}
		}
	}
}

// fail ends the stream on a transport or decode failure.
func (r *frameReader) fail(what string, err error) error {
	r.done = true
	r.Close()
	return fmt.Errorf("wire: %s from %s: %w", what, r.client.addr, err)
}

func (r *frameReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.client.unregisterStream(r.conn)
	return r.conn.Close()
}

// streamCursor decodes the frames of one "openplan" stream. It is a
// rel.ColCursor: NextCol maps each frame onto column vectors with
// O(columns) allocations and Next is the batch's cached row view.
type streamCursor struct {
	frameReader
	schema *rel.Schema
}

func (sc *streamCursor) Schema() *rel.Schema { return sc.schema }

// NextCol implements rel.ColCursor.
func (sc *streamCursor) NextCol() (*rel.ColBatch, error) {
	return readBatch(&sc.frameReader, func(payload []byte) (*rel.ColBatch, error) {
		return rel.DecodeFrame(payload, sc.schema)
	})
}

func (sc *streamCursor) Next() ([]rel.Tuple, error) {
	cb, err := sc.NextCol()
	if err != nil {
		return nil, err
	}
	return cb.Rows(), nil
}

// Close tears down the pool and every in-flight stream. Round trips and
// stream reads in progress fail with a transport error; later calls fail
// fast with a closed-client error. Close is idempotent and safe to call
// concurrently with any other method.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.live)+len(c.streams))
	for conn := range c.live {
		conns = append(conns, conn)
	}
	for conn := range c.streams {
		conns = append(conns, conn)
	}
	c.idle = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	return nil
}

var (
	_ lqp.LQP       = (*Client)(nil)
	_ rel.ColCursor = (*streamCursor)(nil)
)
