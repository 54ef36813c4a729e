package federation

// This file is the resilient LQP wrapper: Source presents N replica
// endpoints of one logical source as a single lqp.LQP, adding per-call
// deadlines, bounded retries with exponential backoff and seeded jitter,
// failover across replicas, hedged streaming opens, a per-replica circuit
// breaker, and mid-stream resume of cut cursors on another replica.

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/stats"
)

// Collectable is the diagnostics capability of a federation-backed LQP:
// Bind returns a view of the same source that reports its fault-handling
// activity (retries, hedges, replicas used) into d. The PQP discovers it by
// interface assertion — sources without it simply contribute nothing to a
// query's diagnostics.
type Collectable interface {
	Bind(d *Diagnostics) lqp.LQP
}

// replica is one endpoint of a Source: the LQP handle plus its health
// state (last-known liveness, consecutive-failure count, circuit breaker)
// and its latency estimator (which places hedges).
type replica struct {
	label string
	l     lqp.LQP
	est   stats.Estimator

	mu        sync.Mutex
	healthy   bool
	consec    int       // consecutive failures
	openUntil time.Time // circuit breaker open until then; zero = closed
	lastErr   error
}

// markUp records a successful call or probe: the replica is live, the
// failure streak and breaker reset.
func (r *replica) markUp() {
	r.mu.Lock()
	r.healthy = true
	r.consec = 0
	r.openUntil = time.Time{}
	r.lastErr = nil
	r.mu.Unlock()
}

// markDown records a failed call or probe; after cfg.BreakerThreshold
// consecutive failures the circuit breaker opens for cfg.BreakerCooldown.
func (r *replica) markDown(cfg Config, err error) {
	r.mu.Lock()
	r.healthy = false
	r.consec++
	r.lastErr = err
	if r.consec >= cfg.BreakerThreshold {
		r.openUntil = time.Now().Add(cfg.BreakerCooldown)
	}
	r.mu.Unlock()
}

// admits reports whether the breaker lets a call through at t: closed, or
// open but past the cooldown (half-open — the next call is the probe).
func (r *replica) admits(t time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.openUntil.IsZero() || t.After(r.openUntil)
}

func (r *replica) isHealthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// Source is the resilient LQP over one logical source's replicas. It
// implements lqp.LQP; calls are routed to
// the first healthy replica and fail over on error. Safe for concurrent
// use (scatter legs of parallel queries share it).
type Source struct {
	name string
	cfg  Config
	reps []*replica

	jmu    sync.Mutex
	jitter *rand.Rand
}

func newSource(name string, cfg Config, reps []*replica) *Source {
	return &Source{
		name:   name,
		cfg:    cfg,
		reps:   reps,
		jitter: rand.New(rand.NewSource(cfg.Seed ^ int64(len(name))<<32 + int64(len(reps)))),
	}
}

// Name implements lqp.LQP: the logical source name — what the answer's
// source tags carry, identical no matter which replica served.
func (s *Source) Name() string { return s.name }

// Replicas returns the replica labels in configured order.
func (s *Source) Replicas() []string {
	labels := make([]string, len(s.reps))
	for i, r := range s.reps {
		labels[i] = r.label
	}
	return labels
}

// Bind implements Collectable.
func (s *Source) Bind(d *Diagnostics) lqp.LQP { return &boundSource{s: s, d: d} }

// candidates orders the replicas for the next attempt: last-known-healthy
// first (in configured order), then unhealthy ones whose breaker admits a
// probe call; if every breaker is open, all replicas in order — trying a
// broken replica beats failing without trying, and it is how the
// federation recovers when active probing is off.
func (s *Source) candidates() []*replica {
	now := time.Now()
	var up, down []*replica
	for _, r := range s.reps {
		switch {
		case !r.admits(now):
		case r.isHealthy():
			up = append(up, r)
		default:
			down = append(down, r)
		}
	}
	if len(up)+len(down) == 0 {
		return s.reps
	}
	return append(up, down...)
}

// backoff sleeps the exponential, jittered backoff before retry attempt n
// (1-based count of completed attempts).
func (s *Source) backoff(attempt int) {
	d := s.cfg.BackoffBase
	for i := 1; i < attempt && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	s.jmu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(d)/2 + 1))
	s.jmu.Unlock()
	time.Sleep(d/2 + j)
}

func (s *Source) noteError() {
	if s.cfg.Stats != nil {
		s.cfg.Stats.ObserveError(s.name)
	}
}

func (s *Source) noteRetry(d *Diagnostics) {
	d.addRetry(1)
	if s.cfg.Stats != nil {
		s.cfg.Stats.ObserveRetry(s.name)
	}
}

func (s *Source) noteHedge(d *Diagnostics) {
	d.addHedge()
	if s.cfg.Stats != nil {
		s.cfg.Stats.ObserveHedge(s.name)
	}
}

// invoke runs f against one replica under the per-call deadline. A call
// that blows the deadline is abandoned (its goroutine finishes on its own,
// bounded by the wire layer's transport deadlines) and discard, when
// non-nil, releases whatever the late call eventually produced.
func invoke[T any](s *Source, r *replica, f func(lqp.LQP) (T, error), discard func(T)) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f(r.l)
		ch <- result{v, err}
	}()
	timer := time.NewTimer(s.cfg.CallTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.v, res.err
	case <-timer.C:
		if discard != nil {
			go func() {
				if res := <-ch; res.err == nil {
					discard(res.v)
				}
			}()
		}
		var zero T
		return zero, &DeadlineError{Source: s.name, Replica: r.label, Timeout: s.cfg.CallTimeout}
	}
}

// call is the unary retry loop: every candidate replica in order, then
// MaxRetries more passes with backoff, then a typed *ExhaustedError.
func call[T any](s *Source, d *Diagnostics, f func(lqp.LQP) (T, error), discard func(T)) (T, error) {
	attempts := 0
	var last error
	for cycle := 0; cycle <= s.cfg.MaxRetries; cycle++ {
		for _, r := range s.candidates() {
			if attempts > 0 {
				s.noteRetry(d)
				s.backoff(attempts)
			}
			attempts++
			start := time.Now()
			v, err := invoke(s, r, f, discard)
			if err == nil {
				r.markUp()
				r.est.Observe(time.Since(start))
				d.addReplica(s.name, r.label)
				return v, nil
			}
			r.markDown(s.cfg, err)
			s.noteError()
			last = err
		}
	}
	var zero T
	if last == nil {
		last = errors.New("no replicas configured")
	}
	return zero, &ExhaustedError{Source: s.name, Attempts: attempts, Last: last}
}

// Relations implements lqp.LQP.
func (s *Source) Relations() ([]string, error) { return s.relations(nil) }

func (s *Source) relations(d *Diagnostics) ([]string, error) {
	return call(s, d, func(l lqp.LQP) ([]string, error) { return l.Relations() }, nil)
}

// Stats implements lqp.LQP.
func (s *Source) Stats() ([]lqp.RelationStats, error) { return s.stats(nil) }

func (s *Source) stats(d *Diagnostics) ([]lqp.RelationStats, error) {
	return call(s, d, func(l lqp.LQP) ([]lqp.RelationStats, error) { return l.Stats() }, nil)
}

// Open implements lqp.LQP: one operation is the one-step plan.
func (s *Source) Open(op lqp.Op) (rel.Cursor, error) { return s.OpenPlan(lqp.PlanOf(op)) }

// OpenPlan implements lqp.LQP: a hedged, deadline-bounded open with
// failover, returning a cursor that resumes mid-stream failures on another
// replica.
func (s *Source) OpenPlan(p lqp.Plan) (rel.Cursor, error) { return s.openPlanStream(nil, p) }

func (s *Source) openPlanStream(d *Diagnostics, p lqp.Plan) (rel.Cursor, error) {
	return s.open(d, func(l lqp.LQP) (rel.Cursor, error) { return l.OpenPlan(p) })
}

func closeCursor(c rel.Cursor) { c.Close() }

// open is the streaming retry loop. The first attempt may hedge: if the
// primary replica has not answered within the hedge delay (configured, or
// derived from its latency estimator's p95), the next candidate's open
// launches too and the first to answer wins — the loser is closed when it
// eventually returns. Later attempts are plain failover with backoff.
func (s *Source) open(d *Diagnostics, open func(lqp.LQP) (rel.Cursor, error)) (rel.Cursor, error) {
	attempts := 0
	var last error
	for cycle := 0; cycle <= s.cfg.MaxRetries; cycle++ {
		cands := s.candidates()
		for i, r := range cands {
			if attempts > 0 {
				s.noteRetry(d)
				s.backoff(attempts)
			}
			var hedge *replica
			if attempts == 0 && i+1 < len(cands) {
				hedge = cands[i+1]
			}
			cur, winner, n, err := s.openOnce(d, r, hedge, open)
			attempts += n
			if err == nil {
				winner.markUp()
				d.addReplica(s.name, winner.label)
				return &resumeCursor{s: s, d: d, open: open, cur: cur, r: winner}, nil
			}
			last = err
		}
	}
	if last == nil {
		last = errors.New("no replicas configured")
	}
	return nil, &ExhaustedError{Source: s.name, Attempts: attempts, Last: last}
}

// hedgeDelay picks how long to wait on prim before launching a hedge:
// the configured delay, or prim's p95 latency estimate floored at
// HedgeMin. Negative means never hedge (disabled, or no estimate yet).
func (s *Source) hedgeDelay(prim *replica) time.Duration {
	hd := s.cfg.HedgeDelay
	if hd < 0 {
		return -1
	}
	if hd == 0 {
		hd = prim.est.P95()
		if hd == 0 {
			return -1
		}
		if hd < s.cfg.HedgeMin {
			hd = s.cfg.HedgeMin
		}
	}
	if hd > s.cfg.CallTimeout {
		return -1
	}
	return hd
}

// openOnce opens on prim, hedging on hedge (may be nil) after the hedge
// delay. Returns the winning cursor and replica, or the last error once
// every launched open has failed or the deadline has passed. n is how many
// opens were launched (for the caller's attempt count).
func (s *Source) openOnce(d *Diagnostics, prim, hedge *replica, open func(lqp.LQP) (rel.Cursor, error)) (rel.Cursor, *replica, int, error) {
	type result struct {
		cur rel.Cursor
		r   *replica
		err error
	}
	ch := make(chan result, 2)
	launch := func(r *replica) {
		go func() {
			cur, err := open(r.l)
			ch <- result{cur, r, err}
		}()
	}
	start := time.Now()
	launch(prim)
	pending := []*replica{prim}
	launched := 1

	deadline := time.NewTimer(s.cfg.CallTimeout)
	defer deadline.Stop()
	var hedgeC <-chan time.Time
	if hedge != nil {
		if hd := s.hedgeDelay(prim); hd >= 0 {
			ht := time.NewTimer(hd)
			defer ht.Stop()
			hedgeC = ht.C
		}
	}

	// discardLate closes whatever the still-pending opens deliver.
	discardLate := func() {
		for range pending {
			go func() {
				if res := <-ch; res.err == nil {
					res.cur.Close()
				}
			}()
		}
	}
	drop := func(r *replica) {
		for i, p := range pending {
			if p == r {
				pending = append(pending[:i], pending[i+1:]...)
				return
			}
		}
	}

	var last error
	for len(pending) > 0 {
		select {
		case res := <-ch:
			drop(res.r)
			if res.err == nil {
				res.r.est.Observe(time.Since(start))
				discardLate()
				return res.cur, res.r, launched, nil
			}
			res.r.markDown(s.cfg, res.err)
			s.noteError()
			last = res.err
		case <-hedgeC:
			hedgeC = nil
			if hedge.admits(time.Now()) {
				s.noteHedge(d)
				launch(hedge)
				pending = append(pending, hedge)
				launched++
			}
		case <-deadline.C:
			err := &DeadlineError{Source: s.name, Replica: pending[0].label, Timeout: s.cfg.CallTimeout}
			for _, r := range pending {
				r.markDown(s.cfg, err)
				s.noteError()
			}
			discardLate()
			return nil, nil, launched, err
		}
	}
	return nil, nil, launched, last
}

// resumeCursor is the failover-aware stream: it counts rows as they are
// delivered, and when the underlying cursor dies mid-stream (anything but
// io.EOF) it reopens the same operation on another replica and skips the
// rows the consumer already has. Replicas serve identical snapshots — the
// property suites hold the federation to that — so resume-by-offset yields
// exactly the uncut stream.
type resumeCursor struct {
	s    *Source
	d    *Diagnostics
	open func(lqp.LQP) (rel.Cursor, error)
	cur  rel.Cursor
	r    *replica
	rows int64
	// head holds rows recovered past the skip offset when a resumed
	// replica's batch straddles it.
	head []rel.Tuple
}

func (c *resumeCursor) Schema() *rel.Schema { return c.cur.Schema() }

func (c *resumeCursor) Next() ([]rel.Tuple, error) {
	for {
		if len(c.head) > 0 {
			batch := c.head
			c.head = nil
			c.rows += int64(len(batch))
			return batch, nil
		}
		batch, err := c.cur.Next()
		if err == nil {
			c.rows += int64(len(batch))
			return batch, nil
		}
		if err == io.EOF {
			return nil, io.EOF
		}
		c.cur.Close()
		c.r.markDown(c.s.cfg, err)
		c.s.noteError()
		if ferr := c.failover(err); ferr != nil {
			return nil, ferr
		}
	}
}

// failover reopens the stream on the next healthy replica and fast-forwards
// past the rows already delivered. The skip consumes whole batches; a batch
// straddling the offset parks its tail in head.
func (c *resumeCursor) failover(cause error) error {
	attempts := 0
	last := cause
	for cycle := 0; cycle <= c.s.cfg.MaxRetries; cycle++ {
		for _, r := range c.s.candidates() {
			c.s.noteRetry(c.d)
			if attempts > 0 {
				c.s.backoff(attempts)
			}
			attempts++
			cur, err := invoke(c.s, r, c.open, closeCursor)
			if err != nil {
				r.markDown(c.s.cfg, err)
				c.s.noteError()
				last = err
				continue
			}
			head, err := skipRows(cur, c.rows)
			if err != nil {
				cur.Close()
				r.markDown(c.s.cfg, err)
				c.s.noteError()
				last = err
				continue
			}
			r.markUp()
			c.d.addReplica(c.s.name, r.label)
			c.cur, c.r, c.head = cur, r, head
			return nil
		}
	}
	return &ExhaustedError{Source: c.s.name, Attempts: attempts, Last: last}
}

// skipRows consumes n rows from cur, returning the tail of a straddling
// batch. A stream that ends (io.EOF) before n rows means the replica's
// snapshot diverges from what was already delivered — an error, never a
// silent truncation.
func skipRows(cur rel.Cursor, n int64) ([]rel.Tuple, error) {
	for n > 0 {
		batch, err := cur.Next()
		if err == io.EOF {
			return nil, errors.New("federation: resumed replica stream shorter than rows already delivered (snapshots diverge)")
		}
		if err != nil {
			return nil, err
		}
		if int64(len(batch)) <= n {
			n -= int64(len(batch))
			continue
		}
		return batch[n:], nil
	}
	return nil, nil
}

func (c *resumeCursor) Close() error { return c.cur.Close() }

// boundSource is a Source view that reports into one query's Diagnostics.
type boundSource struct {
	s *Source
	d *Diagnostics
}

func (b *boundSource) Name() string                            { return b.s.name }
func (b *boundSource) Relations() ([]string, error)            { return b.s.relations(b.d) }
func (b *boundSource) Open(op lqp.Op) (rel.Cursor, error)      { return b.OpenPlan(lqp.PlanOf(op)) }
func (b *boundSource) OpenPlan(p lqp.Plan) (rel.Cursor, error) { return b.s.openPlanStream(b.d, p) }
func (b *boundSource) Stats() ([]lqp.RelationStats, error)     { return b.s.stats(b.d) }
func (b *boundSource) Bind(d *Diagnostics) lqp.LQP             { return &boundSource{s: b.s, d: d} }

var (
	_ lqp.LQP     = (*Source)(nil)
	_ Collectable = (*Source)(nil)
	_ lqp.LQP     = (*boundSource)(nil)
	_ Collectable = (*boundSource)(nil)
)
