package wire

// This file is the mediator side of the wire protocol: where wire.go lets a
// PQP reach remote LQPs, query.go lets remote clients reach a whole PQP —
// the mediator-as-a-service layer (cmd/polygend fronting internal/mediator).
// A "session" request opens a server-side session (audit trail, federation
// metadata for thin shells); "query" runs one polygen query and returns the
// composite answer with its source tags; "queryopen" streams the answer on a
// dedicated connection, reusing the frame protocol of the LQP streams.
//
// Every tagged row, unary or streamed, crosses the wire in a tagged
// columnar frame (core/codec.go): a "query" answer is one frame in the
// response, a "queryopen" stream one frame per batch. Each frame carries the
// source names its tag sets reference, and cells store small indexes into
// its set dictionary. The client re-interns the names into its own
// sourceset.Registry, so tag identity survives the wire without the client
// and server sharing registry IDs. gob carries only the control fields
// around the frames.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/federation"
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

// flatPoly names a source-tagged answer: the relation name and attributes
// (the Attr struct is flat and exported). It heads every tagged answer; the
// rows travel in tagged columnar frames, each carrying its own source-name
// directory.
type flatPoly struct {
	Name  string
	Attrs []core.Attr
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
		p := ans.Relation
		return response{
			Poly:     flatPoly{Name: p.Name, Attrs: p.Attrs},
			HasPoly:  true,
			Bin:      core.AppendFrame(nil, core.FromRelation(p)),
			PlanRows: ans.PlanRows,
			CacheHit: ans.CacheHit,
			Diag:     ans.Diag,
		}
	default:
		return response{Err: fmt.Sprintf("wire: unknown mediator request kind %q", req.Kind)}
	}
}

// openQueryStream opens a "queryopen" stream: the answer's attributes and
// plan in the header, tagged columnar frames after it, and the query's
// fault-handling record on the done frame.
func (s *Server) openQueryStream(req request) (stream, error) {
	if s.mediator == nil {
		return stream{}, fmt.Errorf("wire: server %q is not a mediator (request kind %q)", s.serverName(), req.Kind)
	}
	ms, err := s.mediator.OpenQuery(req.Session, req.Text, req.Algebraic)
	if err != nil {
		return stream{}, err
	}
	cur := ms.Cursor
	cc, _ := cur.(core.ColCursor)
	next := func(buf []byte) ([]byte, error) {
		cb, err := nextCoreColBatch(cur, cc)
		if err != nil {
			return buf, err
		}
		return core.AppendFrame(buf, cb), nil
	}
	header := response{Poly: flatPoly{Name: cur.Name(), Attrs: cur.Attrs()}, HasPoly: true, PlanRows: ms.PlanRows, CacheHit: ms.CacheHit}
	return stream{header: header, next: next, diag: ms.Diag, close: cur.Close}, nil
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
	cb, err := core.DecodeFrame(resp.Bin, resp.Poly.Name, resp.Poly.Attrs, c.Reg)
	if err != nil {
		return nil, fmt.Errorf("wire: decode answer from %s: %w", c.addr, err)
	}
	return &QueryAnswer{Relation: cb.Relation(), PlanRows: resp.PlanRows, CacheHit: resp.CacheHit, Diag: resp.Diag}, nil
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
	r, resp, err := c.startStream(request{Kind: "queryopen", Session: session, Text: text, Algebraic: algebraic})
	if err != nil {
		return nil, nil, err
	}
	cur := &polyStreamCursor{frameReader: r, name: resp.Poly.Name, attrs: resp.Poly.Attrs}
	return cur, &QueryAnswer{PlanRows: resp.PlanRows, CacheHit: resp.CacheHit}, nil
}

// polyStreamCursor decodes the tagged frames of one "queryopen" stream into
// core.Cursor batches. It is a core.ColCursor: each frame maps onto column
// vectors plus a per-frame tag-set dictionary with O(columns + distinct
// sets) allocations.
type polyStreamCursor struct {
	frameReader
	name  string
	attrs []core.Attr
}

// Diagnostics returns the fault-handling record shipped on the stream's
// Done frame; ok is false until the stream has drained to io.EOF.
func (pc *polyStreamCursor) Diagnostics() (federation.Report, bool) {
	return pc.diag, pc.hasDiag
}

func (pc *polyStreamCursor) Name() string                  { return pc.name }
func (pc *polyStreamCursor) Attrs() []core.Attr            { return pc.attrs }
func (pc *polyStreamCursor) Registry() *sourceset.Registry { return pc.client.Reg }

// NextCol implements core.ColCursor.
func (pc *polyStreamCursor) NextCol() (*core.ColBatch, error) {
	return readBatch(&pc.frameReader, func(payload []byte) (*core.ColBatch, error) {
		return core.DecodeFrame(payload, pc.name, pc.attrs, pc.client.Reg)
	})
}

func (pc *polyStreamCursor) Next() ([]core.Tuple, error) {
	cb, err := pc.NextCol()
	if err != nil {
		return nil, err
	}
	return cb.Rows(), nil
}

var _ core.ColCursor = (*polyStreamCursor)(nil)
var _ Diagnosed = (*polyStreamCursor)(nil)
