// Package mediator is the service layer that turns one shared Polygen Query
// Processor into a long-lived, concurrency-safe mediator: the paper's §V
// System P front end grown into a daemon (cmd/polygend). It implements
// wire.Mediator, so a wire.Server built with wire.NewMediatorServer exposes
// it over TCP to any number of thin clients (the shell's -connect mode,
// wire.Client.Query/OpenQuery, the bench/ workloads).
//
// The service adds what a bare PQP lacks for multi-client serving:
//
//   - sessions: each client session carries an audit trail of the queries
//     it ran (text, wall time, result size, plan-cache hit) and the
//     federation metadata handshake thin clients need for \schemes and
//     \describe without catalog access;
//   - admission: a bounded session table with idle expiry, so abandoned
//     clients cannot grow server state forever;
//   - shared execution: every session's queries run on the one PQP — one
//     plan cache, one canonical-ID interner, one statistics catalog — so
//     the federation warms up once, not once per client.
//
// The PQP itself is safe for concurrent use (see pqp's package comment);
// the mediator adds only its own session state, guarded here.
package mediator

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/pqp"
	"repro/internal/sourceset"
	"repro/internal/translate"
	"repro/internal/wire"
)

// Config tunes a Service. The zero value serves with the defaults below.
type Config struct {
	// Federation names the federation ("polygen" when empty) — the "name"
	// answer of the mediator server.
	Federation string
	// MaxSessions bounds the session table (default 1024). OpenSession
	// refuses — after pruning idle sessions — beyond it.
	MaxSessions int
	// TrailLimit bounds each session's audit trail (default 256 entries);
	// older entries fall off the front.
	TrailLimit int
	// SessionIdle is the idle expiry: sessions untouched this long are
	// pruned on the next OpenSession (default 1h; <0 disables expiry).
	SessionIdle time.Duration
	// Degrade is the default degradation policy of sessions that do not
	// request one: PolicyFail (the zero value) fails a query whole when a
	// source exhausts its replicas; PolicyPartial lets exhausted scatter
	// legs drop out, named in the answer's diagnostics.
	Degrade federation.Policy
	// SlowQuery, when positive, turns on structured slow-query logging:
	// every statement whose wall time (for streams: time to open the
	// cursor) reaches the threshold writes one JSON line to SlowLog —
	// query text, duration, result size, plan-cache status and the
	// federation diagnostics known at that point. Failed statements log
	// too when they burned the threshold first.
	SlowQuery time.Duration
	// SlowLog receives the slow-query lines (default os.Stderr). Writes
	// are serialized by the service, so any io.Writer works.
	SlowLog io.Writer
}

const (
	defaultMaxSessions = 1024
	defaultTrailLimit  = 256
	defaultSessionIdle = time.Hour
)

func (c Config) withDefaults() Config {
	if c.Federation == "" {
		c.Federation = "polygen"
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = defaultMaxSessions
	}
	if c.TrailLimit <= 0 {
		c.TrailLimit = defaultTrailLimit
	}
	if c.SessionIdle == 0 {
		c.SessionIdle = defaultSessionIdle
	}
	if c.SlowLog == nil {
		c.SlowLog = os.Stderr
	}
	return c
}

// Service is a concurrency-safe mediator over one shared PQP.
type Service struct {
	q   *pqp.PQP
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session

	// Cumulative service counters (monotonic; see Counters). They exist
	// because session audit trails are bounded — totals must not shrink
	// when old trail entries fall off.
	queries     atomic.Uint64
	queryErrors atomic.Uint64
	slow        atomic.Uint64

	// slowMu serializes slow-query log lines so concurrent sessions never
	// interleave bytes within one line.
	slowMu sync.Mutex
}

// Counters is a snapshot of the service's cumulative query counters, all
// monotonic over the service's lifetime.
type Counters struct {
	// Queries counts every statement accepted by Query/OpenQuery, failed
	// ones included.
	Queries uint64
	// QueryErrors counts the failed ones (parse and execution errors).
	QueryErrors uint64
	// Slow counts statements that crossed the Config.SlowQuery threshold.
	Slow uint64
}

// Counters returns the cumulative query counters.
func (s *Service) Counters() Counters {
	return Counters{
		Queries:     s.queries.Load(),
		QueryErrors: s.queryErrors.Load(),
		Slow:        s.slow.Load(),
	}
}

// New builds a service over processor. The processor's configuration flags
// (Optimize, Plans, Stats, ...) must be settled before serving begins.
func New(processor *pqp.PQP, cfg Config) *Service {
	return &Service{q: processor, cfg: cfg.withDefaults(), sessions: make(map[string]*Session)}
}

// PQP returns the shared query processor (e.g. for plan-cache statistics).
func (s *Service) PQP() *pqp.PQP { return s.q }

// Federation implements wire.Mediator.
func (s *Service) Federation() string { return s.cfg.Federation }

// Session is one client session: identity plus audit trail.
type Session struct {
	// ID names the session on the wire.
	ID string
	// Created is the session's start time.
	Created time.Time

	limit  int
	policy federation.Policy

	mu       sync.Mutex
	lastUsed time.Time
	trail    []TrailEntry
}

// TrailEntry is one audited query.
type TrailEntry struct {
	// When the query started.
	When time.Time
	// Text is the query as received; Algebraic records which parser ran.
	Text      string
	Algebraic bool
	// Duration is the wall time to answer (for streams: to open the
	// cursor).
	Duration time.Duration
	// Rows is the materialized answer's cardinality; -1 for streamed
	// answers, whose size the mediator never sees.
	Rows int
	// CacheHit reports the plan came from the plan cache.
	CacheHit bool
	// Missing names the sources a degraded (partial-policy) answer lost;
	// empty for complete answers and for streams (whose losses the mediator
	// learns only after the client drains the cursor).
	Missing []string
	// Err is the failure, "" on success.
	Err string
}

// Policy returns the session's degradation policy.
func (se *Session) Policy() federation.Policy { return se.policy }

// LastUsed returns the session's last activity time.
func (se *Session) LastUsed() time.Time {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.lastUsed
}

// Snapshot returns the session's last activity time and a copy of its audit
// trail under one lock acquisition — a consistent point-in-time read (the
// trail, oldest first, never contains a statement newer than the returned
// time). The V$ virtual tables build their rows from it; reading the two
// separately could interleave with a concurrent statement and disagree.
func (se *Session) Snapshot() (lastUsed time.Time, trail []TrailEntry) {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.lastUsed, append([]TrailEntry(nil), se.trail...)
}

func (se *Session) record(e TrailEntry) {
	if se == nil {
		return
	}
	se.mu.Lock()
	defer se.mu.Unlock()
	se.lastUsed = time.Now()
	se.trail = append(se.trail, e)
	if over := len(se.trail) - se.limit; over > 0 {
		se.trail = append(se.trail[:0:0], se.trail[over:]...)
	}
}

// newSessionID returns a fresh random session ID.
func newSessionID() (string, error) {
	var b [9]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("mediator: generating session id: %w", err)
	}
	return "s" + hex.EncodeToString(b[:]), nil
}

// OpenSession implements wire.Mediator: it prunes idle sessions, admits a
// new one under the bound, and returns its ID plus the federation metadata.
// The session's degradation policy is the requested one, or the service
// default when the request leaves it empty; the effective policy is echoed
// in SessionInfo.Policy.
func (s *Service) OpenSession(opts wire.SessionOptions) (wire.SessionInfo, error) {
	policy := s.cfg.Degrade
	if opts.Policy != "" {
		var err error
		if policy, err = federation.ParsePolicy(opts.Policy); err != nil {
			return wire.SessionInfo{}, fmt.Errorf("mediator: %w", err)
		}
	}
	id, err := newSessionID()
	if err != nil {
		return wire.SessionInfo{}, err
	}
	now := time.Now()
	sess := &Session{ID: id, Created: now, limit: s.cfg.TrailLimit, policy: policy, lastUsed: now}
	s.mu.Lock()
	s.pruneLocked(now)
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return wire.SessionInfo{}, fmt.Errorf("mediator: session table full (%d sessions)", s.cfg.MaxSessions)
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	return wire.SessionInfo{
		ID:         id,
		Federation: s.cfg.Federation,
		Sources:    s.sourceNames(),
		Schemes:    s.SchemeInfos(),
		Policy:     policy.String(),
	}, nil
}

// policyOf resolves the degradation policy for one request: the session's
// when there is one, the service default for sessionless callers.
func (s *Service) policyOf(sess *Session) federation.Policy {
	if sess != nil {
		return sess.policy
	}
	return s.cfg.Degrade
}

// sourceNames lists the federation's interned source names in registry
// (canonical) order.
func (s *Service) sourceNames() []string {
	reg := s.q.Registry()
	names := make([]string, reg.Len())
	for i := range names {
		names[i] = reg.Name(sourceset.ID(i))
	}
	return names
}

// pruneLocked drops sessions idle beyond the expiry. Callers hold s.mu.
func (s *Service) pruneLocked(now time.Time) {
	if s.cfg.SessionIdle <= 0 {
		return
	}
	for id, sess := range s.sessions {
		if now.Sub(sess.LastUsed()) > s.cfg.SessionIdle {
			delete(s.sessions, id)
		}
	}
}

// CloseSession implements wire.Mediator.
func (s *Service) CloseSession(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("mediator: unknown session %q", id)
	}
	delete(s.sessions, id)
	return nil
}

// Session returns the live session with the given ID.
func (s *Service) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// SessionCount returns the number of live sessions.
func (s *Service) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Sessions returns the live sessions, oldest first (ID breaks ties), as a
// copy of the session table taken under one lock acquisition. The returned
// *Session values are the live sessions — their own accessors (Snapshot,
// LastUsed) lock per session — but the slice itself is the caller's; the
// V$SESSION and V$STMT virtual tables snapshot through it.
func (s *Service) Sessions() []*Session {
	s.mu.Lock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// lookup resolves a request's session: "" is the sessionless (un-audited)
// caller, anything else must name a live session.
func (s *Service) lookup(id string) (*Session, error) {
	if id == "" {
		return nil, nil
	}
	sess, ok := s.Session(id)
	if !ok {
		return nil, fmt.Errorf("mediator: unknown session %q", id)
	}
	return sess, nil
}

// parse routes the query text through the right front end.
func (s *Service) parse(text string, algebraic bool) (translate.Expr, error) {
	if algebraic {
		return translate.ParseExpr(text)
	}
	return translate.CompileSQL(text, s.q.Schema())
}

// audit books one finished (or failed) statement: the session trail entry,
// the service's cumulative counters, and — past the threshold — the
// slow-query log. session may be "" for sessionless callers, whose
// statements count and log but are not trailed.
func (s *Service) audit(sess *Session, session string, entry TrailEntry, rep federation.Report) {
	sess.record(entry)
	s.queries.Add(1)
	if entry.Err != "" {
		s.queryErrors.Add(1)
	}
	if s.cfg.SlowQuery <= 0 || entry.Duration < s.cfg.SlowQuery {
		return
	}
	s.slow.Add(1)
	line, err := json.Marshal(struct {
		Time       string   `json:"time"`
		Session    string   `json:"session,omitempty"`
		Text       string   `json:"text"`
		Algebraic  bool     `json:"algebraic"`
		DurationMS float64  `json:"duration_ms"`
		Rows       int      `json:"rows"`
		CacheHit   bool     `json:"cache_hit"`
		Missing    []string `json:"missing,omitempty"`
		Retries    int      `json:"retries,omitempty"`
		Hedges     int      `json:"hedges,omitempty"`
		Err        string   `json:"err,omitempty"`
	}{
		Time:       entry.When.UTC().Format(time.RFC3339Nano),
		Session:    session,
		Text:       entry.Text,
		Algebraic:  entry.Algebraic,
		DurationMS: float64(entry.Duration) / float64(time.Millisecond),
		Rows:       entry.Rows,
		CacheHit:   entry.CacheHit,
		Missing:    rep.Missing,
		Retries:    rep.Retries,
		Hedges:     rep.Hedges,
		Err:        entry.Err,
	})
	if err != nil {
		return
	}
	s.slowMu.Lock()
	fmt.Fprintf(s.cfg.SlowLog, "%s\n", line)
	s.slowMu.Unlock()
}

// Query implements wire.Mediator: one materialized polygen query on the
// shared PQP, audited on the session's trail.
func (s *Service) Query(session, text string, algebraic bool) (*wire.MediatedAnswer, error) {
	sess, err := s.lookup(session)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	entry := TrailEntry{When: start, Text: text, Algebraic: algebraic, Rows: -1}
	fail := func(err error) (*wire.MediatedAnswer, error) {
		entry.Duration = time.Since(start)
		entry.Err = err.Error()
		s.audit(sess, session, entry, federation.Report{})
		return nil, err
	}
	e, err := s.parse(text, algebraic)
	if err != nil {
		return fail(err)
	}
	res, err := s.q.RunPolicy(e, s.policyOf(sess))
	if err != nil {
		return fail(err)
	}
	rep := res.Diag.Report()
	entry.Duration = time.Since(start)
	entry.Rows = res.Relation.Cardinality()
	entry.CacheHit = res.CacheHit
	entry.Missing = rep.Missing
	s.audit(sess, session, entry, rep)
	return &wire.MediatedAnswer{Relation: res.Relation, PlanRows: res.PlanLines(), CacheHit: res.CacheHit, Diag: rep}, nil
}

// OpenQuery implements wire.Mediator: the streamed variant. The trail
// records the time to open the stream; the answer's size is unknown to the
// mediator (Rows = -1).
func (s *Service) OpenQuery(session, text string, algebraic bool) (*wire.MediatedStream, error) {
	sess, err := s.lookup(session)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	entry := TrailEntry{When: start, Text: text, Algebraic: algebraic, Rows: -1}
	fail := func(err error) (*wire.MediatedStream, error) {
		entry.Duration = time.Since(start)
		entry.Err = err.Error()
		s.audit(sess, session, entry, federation.Report{})
		return nil, err
	}
	e, err := s.parse(text, algebraic)
	if err != nil {
		return fail(err)
	}
	cur, res, err := s.q.OpenPolicy(e, s.policyOf(sess))
	if err != nil {
		return fail(err)
	}
	entry.Duration = time.Since(start)
	entry.CacheHit = res.CacheHit
	// The stream has only opened: the audited duration (and any slow-query
	// line) covers planning and cursor construction; diagnostics reflect
	// what failover activity the open itself incurred.
	s.audit(sess, session, entry, res.Diag.Report())
	// Result.Diag is the live collector; the server snapshots it (Report)
	// only after the stream drains, so mid-stream failovers are counted.
	return &wire.MediatedStream{Cursor: cur, PlanRows: res.PlanLines(), CacheHit: res.CacheHit, Diag: res.Diag.Report}, nil
}

// SchemeInfos renders the polygen schema's metadata for thin clients.
func (s *Service) SchemeInfos() []wire.SchemeInfo {
	return wire.SchemeInfos(s.q.Schema())
}

var _ wire.Mediator = (*Service)(nil)
