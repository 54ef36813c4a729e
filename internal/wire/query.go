package wire

// This file is the mediator side of the wire protocol: where wire.go lets a
// PQP reach remote LQPs, query.go lets remote clients reach a whole PQP —
// the mediator-as-a-service layer (cmd/polygend fronting internal/mediator).
// A "session" request opens a server-side session (audit trail, federation
// metadata for thin shells); "query" runs one polygen query and returns the
// composite answer with its source tags; "queryopen" streams the answer as
// tagged columnar frames on a dedicated connection, reusing the frame
// protocol of the LQP streams.
//
// Source tags travel as per-message directories: every tagged answer or
// frame carries the list of source names its cells reference, and cells
// store small indexes into it. The client re-interns the names into its own
// sourceset.Registry, so tag identity survives the wire without the client
// and server sharing registry IDs.

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Mediator is the service the wire server fronts for "session", "query" and
// "queryopen" requests — implemented by internal/mediator over a shared
// *pqp.PQP. All methods must be safe for concurrent use; the server calls
// them from one goroutine per client connection.
type Mediator interface {
	// Federation names the federation (the mediator server's "name" answer).
	Federation() string
	// OpenSession creates a session and returns its ID plus the federation
	// metadata a thin client needs (scheme names, attribute mappings).
	OpenSession(opts SessionOptions) (SessionInfo, error)
	// CloseSession ends a session. Closing an unknown session is an error.
	CloseSession(id string) error
	// Query runs one polygen query — SQL, or paper algebra when algebraic —
	// and returns the materialized tagged answer. session may be "" for a
	// sessionless (un-audited) query.
	Query(session, text string, algebraic bool) (*MediatedAnswer, error)
	// OpenQuery runs the query's translation pipeline and returns the
	// answer as a tagged cursor; the caller (the server stream loop) owns
	// the cursor.
	OpenQuery(session, text string, algebraic bool) (*MediatedStream, error)
}

// SessionOptions is what a client asks of its session.
type SessionOptions struct {
	// Policy is the degradation policy of every query the session runs:
	// "fail" (the whole query fails when a source exhausts its replicas),
	// "partial" (exhausted scatter legs drop out, named in the answer's
	// diagnostics), or "" for the mediator's default.
	Policy string
}

// MediatedAnswer is one materialized mediator answer.
type MediatedAnswer struct {
	// Relation is the composite answer with source tags.
	Relation *core.Relation
	// PlanRows is the executed (optimized) plan, one row per line.
	PlanRows []string
	// CacheHit reports the plan came from the mediator's plan cache.
	CacheHit bool
	// Diag is the query's fault-handling record.
	Diag federation.Report
}

// MediatedStream is one streaming mediator answer.
type MediatedStream struct {
	// Cursor yields the tagged answer batches.
	Cursor core.Cursor
	// PlanRows / CacheHit are as in MediatedAnswer.
	PlanRows []string
	CacheHit bool
	// Diag, when non-nil, snapshots the query's fault-handling record; the
	// server calls it after the stream completes (the record keeps growing
	// while batches flow — mid-stream failovers count) and ships it on the
	// Done frame.
	Diag func() federation.Report
}

// SessionInfo is the answer to a "session" request.
type SessionInfo struct {
	// ID names the session in subsequent requests.
	ID string
	// Federation is the federation name.
	Federation string
	// Sources lists the federation's local database names in the server
	// registry's canonical order. OpenSession pre-interns them client-side,
	// so tag sets render in the same order on both ends of the wire.
	Sources []string
	// Schemes is the polygen schema's metadata, enough for a thin shell's
	// \schemes and \describe without catalog access.
	Schemes []SchemeInfo
	// Policy echoes the session's effective degradation policy ("fail" or
	// "partial") after the mediator resolved the requested one against its
	// default.
	Policy string
}

// SchemeInfo describes one polygen scheme to thin clients.
type SchemeInfo struct {
	Name string
	// Key is the scheme's primary key attribute.
	Key string
	// Attrs lists the scheme's attributes with their local mappings.
	Attrs []SchemeAttrInfo
}

// SchemeAttrInfo is one polygen attribute and the local attributes it maps.
type SchemeAttrInfo struct {
	Name string
	// Mapping renders each mapped local attribute ("DB.SCHEME.ATTR").
	Mapping []string
}

// SchemeInfos renders a polygen schema's metadata into the wire form — the
// "session" handshake payload, shared by the mediator service and the local
// shell backend so thin and thick clients describe schemes identically.
func SchemeInfos(schema *core.Schema) []SchemeInfo {
	names := schema.SchemeNames()
	infos := make([]SchemeInfo, 0, len(names))
	for _, name := range names {
		scheme, ok := schema.Scheme(name)
		if !ok {
			continue
		}
		info := SchemeInfo{Name: scheme.Name, Key: scheme.Key}
		for _, pa := range scheme.Attrs {
			ai := SchemeAttrInfo{Name: pa.Name, Mapping: make([]string, len(pa.Mapping))}
			for i, la := range pa.Mapping {
				ai.Mapping[i] = la.String()
			}
			info.Attrs = append(info.Attrs, ai)
		}
		infos = append(infos, info)
	}
	return infos
}

// flatPoly is the wire form of core.Relation: attributes as-is (the Attr
// struct is flat and exported), cells flattened into datum plus tag-index
// lists, and a directory mapping those indexes to source names. In a stream
// header Tuples and Sources are empty; tagged rows follow in frames, each
// frame carrying its own directory.
type flatPoly struct {
	Name    string
	Attrs   []core.Attr
	Sources []string
	Tuples  []flatTuple
}

// flatTuple is one tagged row.
type flatTuple []flatCell

// flatCell is one polygen cell: the datum and the origin/intermediate tag
// sets as indexes into the enclosing message's Sources directory.
type flatCell struct {
	D rel.Value
	O []int32
	I []int32
}

// tagEncoder flattens sourceset.Sets of one message, building the Sources
// directory as it goes.
type tagEncoder struct {
	reg   *sourceset.Registry
	index map[sourceset.ID]int32
	names []string
}

func newTagEncoder(reg *sourceset.Registry) *tagEncoder {
	return &tagEncoder{reg: reg, index: make(map[sourceset.ID]int32)}
}

func (e *tagEncoder) set(s sourceset.Set) []int32 {
	if s.IsEmpty() {
		return nil
	}
	ids := s.IDs()
	out := make([]int32, len(ids))
	for i, id := range ids {
		wi, ok := e.index[id]
		if !ok {
			wi = int32(len(e.names))
			e.index[id] = wi
			e.names = append(e.names, e.reg.Name(id))
		}
		out[i] = wi
	}
	return out
}

// flattenBatch flattens one batch of tagged rows with a per-batch source
// directory.
func flattenBatch(batch []core.Tuple, reg *sourceset.Registry) ([]flatTuple, []string) {
	enc := newTagEncoder(reg)
	tuples := make([]flatTuple, len(batch))
	for bi, t := range batch {
		row := make(flatTuple, len(t))
		for i, c := range t {
			row[i] = flatCell{D: c.D, O: enc.set(c.O), I: enc.set(c.I)}
		}
		tuples[bi] = row
	}
	return tuples, enc.names
}

func flattenPoly(p *core.Relation) flatPoly {
	tuples, sources := flattenBatch(p.Tuples, p.Reg)
	return flatPoly{
		Name:    p.Name,
		Attrs:   append([]core.Attr(nil), p.Attrs...),
		Sources: sources,
		Tuples:  tuples,
	}
}

// tagDecoder rebuilds sourceset.Sets from one message's directory,
// re-interning the source names into the receiver's registry.
type tagDecoder struct {
	ids []sourceset.ID
}

func newTagDecoder(reg *sourceset.Registry, sources []string) *tagDecoder {
	d := &tagDecoder{ids: make([]sourceset.ID, len(sources))}
	for i, name := range sources {
		d.ids[i] = reg.Intern(name)
	}
	return d
}

func (d *tagDecoder) set(idx []int32) (sourceset.Set, error) {
	var s sourceset.Set
	for _, wi := range idx {
		if wi < 0 || int(wi) >= len(d.ids) {
			return s, fmt.Errorf("wire: tag index %d outside source directory (%d entries)", wi, len(d.ids))
		}
		s = s.With(d.ids[wi])
	}
	return s, nil
}

// unflattenBatch rebuilds one batch of tagged rows into out's attribute
// space, appending nothing — rows are returned for the caller to use.
func unflattenBatch(tuples []flatTuple, sources []string, reg *sourceset.Registry, width int) ([]core.Tuple, error) {
	dec := newTagDecoder(reg, sources)
	rows := make([]core.Tuple, len(tuples))
	for bi, ft := range tuples {
		if len(ft) != width {
			return nil, fmt.Errorf("wire: tagged tuple degree %d does not match schema width %d", len(ft), width)
		}
		row := make(core.Tuple, len(ft))
		for i, fc := range ft {
			o, err := dec.set(fc.O)
			if err != nil {
				return nil, err
			}
			in, err := dec.set(fc.I)
			if err != nil {
				return nil, err
			}
			row[i] = core.Cell{D: fc.D, O: o, I: in}
		}
		rows[bi] = row
	}
	return rows, nil
}

func unflattenPoly(f flatPoly, reg *sourceset.Registry) (*core.Relation, error) {
	p := core.NewRelation(f.Name, reg, f.Attrs...)
	rows, err := unflattenBatch(f.Tuples, f.Sources, reg, len(f.Attrs))
	if err != nil {
		return nil, err
	}
	p.Tuples = rows
	return p, nil
}

// handleMediator serves the round-trip mediator kinds ("session",
// "endsession", "query").
func (s *Server) handleMediator(req request) response {
	if s.mediator == nil {
		return response{Err: fmt.Sprintf("wire: server %q is not a mediator (request kind %q)", s.serverName(), req.Kind)}
	}
	switch req.Kind {
	case "session":
		info, err := s.mediator.OpenSession(SessionOptions{Policy: req.Policy})
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Session: info}
	case "endsession":
		if err := s.mediator.CloseSession(req.Session); err != nil {
			return response{Err: err.Error()}
		}
		return response{}
	case "query":
		ans, err := s.mediator.Query(req.Session, req.Text, req.Algebraic)
		if err != nil {
			return response{Err: err.Error()}
		}
		return response{Poly: flattenPoly(ans.Relation), HasPoly: true, PlanRows: ans.PlanRows, CacheHit: ans.CacheHit, Diag: ans.Diag}
	default:
		return response{Err: fmt.Sprintf("wire: unknown mediator request kind %q", req.Kind)}
	}
}

// serveQueryStream answers one "queryopen" request: a header response with
// the answer's attributes and plan, then tagged row-batch frames, then a
// done frame — the tagged twin of serveStream. The returned error is
// non-nil only for transport failures.
func (s *Server) serveQueryStream(conn net.Conn, enc *gob.Encoder, req request) error {
	if s.mediator == nil {
		return s.send(conn, enc, response{Err: fmt.Sprintf("wire: server %q is not a mediator (request kind %q)", s.serverName(), req.Kind)})
	}
	ms, err := s.mediator.OpenQuery(req.Session, req.Text, req.Algebraic)
	if err != nil {
		return s.send(conn, enc, response{Err: err.Error()})
	}
	defer ms.Cursor.Close()
	header := response{Poly: flatPoly{Name: ms.Cursor.Name(), Attrs: ms.Cursor.Attrs()}, HasPoly: true, PlanRows: ms.PlanRows, CacheHit: ms.CacheHit}
	if err := s.send(conn, enc, header); err != nil {
		return err
	}
	cc, _ := ms.Cursor.(core.ColCursor)
	var buf []byte
	for {
		cb, err := nextCoreColBatch(ms.Cursor, cc)
		if err == io.EOF {
			done := frame{Done: true}
			if ms.Diag != nil {
				done.Diag = ms.Diag()
			}
			return s.send(conn, enc, done)
		}
		if err != nil {
			return s.send(conn, enc, frame{Err: err.Error()})
		}
		buf = appendCoreFrame(buf[:0], cb)
		if err := s.send(conn, enc, frame{Bin: buf}); err != nil {
			return err
		}
	}
}

// nextCoreColBatch pulls the next tagged batch in columnar form: natively
// from a columnar cursor, otherwise by columnarizing the row batch (which
// also interns its tag sets into the frame's dictionary).
func nextCoreColBatch(cur core.Cursor, cc core.ColCursor) (*core.ColBatch, error) {
	if cc != nil {
		return cc.NextCol()
	}
	batch, err := cur.Next()
	if err != nil {
		return nil, err
	}
	b := core.NewColBatch(cur.Name(), cur.Registry(), cur.Attrs())
	for _, t := range batch {
		b.AppendTuple(t)
	}
	return b, nil
}

// OpenSession opens a mediator session with default options and returns
// its ID plus the federation metadata. The federation's source names are
// interned into the client registry in the server's canonical order, so
// decoded tag sets format identically on both ends.
func (c *Client) OpenSession() (SessionInfo, error) {
	return c.OpenSessionWith(SessionOptions{})
}

// OpenSessionWith is OpenSession with explicit session options (e.g. the
// "partial" degradation policy).
func (c *Client) OpenSessionWith(opts SessionOptions) (SessionInfo, error) {
	resp, err := c.roundTrip(request{Kind: "session", Policy: opts.Policy})
	if err != nil {
		return SessionInfo{}, err
	}
	for _, name := range resp.Session.Sources {
		c.Reg.Intern(name)
	}
	return resp.Session, nil
}

// CloseSession ends a mediator session.
func (c *Client) CloseSession(id string) error {
	_, err := c.roundTrip(request{Kind: "endsession", Session: id})
	return err
}

// QueryAnswer is a mediator query result on the client side.
type QueryAnswer struct {
	// Relation is the tagged composite answer (tags interned into the
	// client's registry, c.Reg). Nil on the streaming path.
	Relation *core.Relation
	// PlanRows is the executed plan, one row per line.
	PlanRows []string
	// CacheHit reports the mediator answered from its plan cache.
	CacheHit bool
	// Diag is the query's fault-handling record: retries, hedges, replicas
	// used and — under the partial policy — the sources the answer is
	// missing. On the streaming path it arrives with the Done frame; read
	// it from the cursor (Diagnosed) instead.
	Diag federation.Report
}

// Query runs one polygen query on the mediator and returns the
// materialized tagged answer. session may be "" for a sessionless query;
// algebraic selects the paper-algebra parser over the SQL front end.
func (c *Client) Query(session, text string, algebraic bool) (*QueryAnswer, error) {
	resp, err := c.roundTrip(request{Kind: "query", Session: session, Text: text, Algebraic: algebraic})
	if err != nil {
		return nil, err
	}
	if !resp.HasPoly {
		return nil, fmt.Errorf("wire: query response carried no relation")
	}
	p, err := unflattenPoly(resp.Poly, c.Reg)
	if err != nil {
		return nil, err
	}
	return &QueryAnswer{Relation: p, PlanRows: resp.PlanRows, CacheHit: resp.CacheHit, Diag: resp.Diag}, nil
}

// Diagnosed is the capability of streamed answers whose final frame
// carried the query's fault-handling record — the cursor returned by
// OpenQuery implements it. The record is complete (and ok true) only after
// Next has returned io.EOF; an aborted stream never learns it.
type Diagnosed interface {
	Diagnostics() (federation.Report, bool)
}

// OpenQuery runs one polygen query on the mediator and streams the tagged
// answer batches on a dedicated connection. The returned answer carries the
// plan (Relation is nil — the rows are in the cursor). The caller owns the
// cursor and must Close it; Client.Close aborts it with the rest.
func (c *Client) OpenQuery(session, text string, algebraic bool) (core.Cursor, *QueryAnswer, error) {
	conn, dec, resp, err := c.startStream(request{Kind: "queryopen", Session: session, Text: text, Algebraic: algebraic})
	if err != nil {
		return nil, nil, err
	}
	if !resp.HasPoly {
		c.unregisterStream(conn)
		conn.Close()
		return nil, nil, fmt.Errorf("wire: queryopen response carried no schema")
	}
	cur := &polyStreamCursor{
		client:  c,
		conn:    conn,
		dec:     dec,
		name:    resp.Poly.Name,
		attrs:   append([]core.Attr(nil), resp.Poly.Attrs...),
		timeout: c.timeout(),
	}
	return cur, &QueryAnswer{PlanRows: resp.PlanRows, CacheHit: resp.CacheHit}, nil
}

// polyStreamCursor decodes the tagged frames of one "queryopen" stream into
// core.Cursor batches. It is a core.ColCursor: each frame maps onto column
// vectors plus a per-frame tag-set dictionary with O(columns + distinct
// sets) allocations.
type polyStreamCursor struct {
	client  *Client
	conn    net.Conn
	dec     *gob.Decoder
	name    string
	attrs   []core.Attr
	timeout time.Duration
	done    bool
	closed  bool
	diag    federation.Report
	hasDiag bool
}

// Diagnostics returns the fault-handling record shipped on the stream's
// Done frame; ok is false until the stream has drained to io.EOF.
func (pc *polyStreamCursor) Diagnostics() (federation.Report, bool) {
	return pc.diag, pc.hasDiag
}

func (pc *polyStreamCursor) Name() string                  { return pc.name }
func (pc *polyStreamCursor) Attrs() []core.Attr            { return pc.attrs }
func (pc *polyStreamCursor) Registry() *sourceset.Registry { return pc.client.Reg }

// NextCol implements core.ColCursor: it decodes frames until a non-empty
// batch arrives.
func (pc *polyStreamCursor) NextCol() (*core.ColBatch, error) {
	if pc.done || pc.closed {
		return nil, io.EOF
	}
	for {
		pc.conn.SetReadDeadline(time.Now().Add(pc.timeout))
		var f frame
		if err := pc.dec.Decode(&f); err != nil {
			pc.done = true
			pc.Close()
			return nil, fmt.Errorf("wire: receive frame from %s: %w", pc.client.addr, err)
		}
		switch {
		case f.Err != "":
			pc.done = true
			return nil, errors.New(f.Err)
		case f.Done:
			pc.done = true
			pc.diag = f.Diag
			pc.hasDiag = true
			return nil, io.EOF
		case len(f.Bin) > 0:
			cb, err := decodeCoreFrame(f.Bin, pc.name, pc.attrs, pc.client.Reg)
			if err != nil {
				pc.done = true
				pc.Close()
				return nil, fmt.Errorf("wire: decode frame from %s: %w", pc.client.addr, err)
			}
			if cb.Len() > 0 {
				return cb, nil
			}
		}
	}
}

func (pc *polyStreamCursor) Next() ([]core.Tuple, error) {
	cb, err := pc.NextCol()
	if err != nil {
		return nil, err
	}
	return cb.Rows(), nil
}

func (pc *polyStreamCursor) Close() error {
	if pc.closed {
		return nil
	}
	pc.closed = true
	pc.client.unregisterStream(pc.conn)
	return pc.conn.Close()
}

var _ core.ColCursor = (*polyStreamCursor)(nil)
var _ Diagnosed = (*polyStreamCursor)(nil)
