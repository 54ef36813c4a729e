package federation

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/stats"
)

// testDB builds one local database with enough rows for several batches.
func testDB(rows int) *catalog.Database {
	db := catalog.NewDatabase("AD")
	db.MustCreate("ALUMNUS", rel.SchemaOf("AID#", "ANAME"), "AID#")
	tuples := make([]rel.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		tuples = append(tuples, rel.Tuple{
			rel.String(fmt.Sprintf("A%05d", i)),
			rel.String(fmt.Sprintf("name-%d", i)),
		})
	}
	if err := db.Insert("ALUMNUS", tuples...); err != nil {
		panic(err)
	}
	return db
}

// fake is a scriptable LQP: behave runs before every forwarded call (its
// error aborts the call), letting tests stage failures, hangs and slowness
// per call number.
type fake struct {
	*lqp.Local
	calls  atomic.Int64
	behave func(n int64) error
}

func newFake(db *catalog.Database, behave func(n int64) error) *fake {
	return &fake{Local: lqp.NewLocal(db), behave: behave}
}

func (f *fake) gate() error {
	n := f.calls.Add(1)
	if f.behave == nil {
		return nil
	}
	return f.behave(n)
}

func (f *fake) Relations() ([]string, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Local.Relations()
}

func (f *fake) Open(op lqp.Op) (rel.Cursor, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Local.Open(op)
}

func (f *fake) OpenPlan(p lqp.Plan) (rel.Cursor, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Local.OpenPlan(p)
}

func (f *fake) Stats() ([]lqp.RelationStats, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Local.Stats()
}

func testConfig() Config {
	return Config{
		CallTimeout: 5 * time.Second,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		HedgeDelay:  -1, // off unless the test wants it
		Seed:        7,
	}.withDefaults()
}

// drainOpen drains an opened operation or plan into a relation.
func drainOpen(cur rel.Cursor, err error) (*rel.Relation, error) {
	if err != nil {
		return nil, err
	}
	return rel.Drain(cur)
}

func drain(t *testing.T, c rel.Cursor) *rel.Relation {
	t.Helper()
	r, err := rel.Drain(c)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return r
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", PolicyFail, false},
		{"fail", PolicyFail, false},
		{"partial", PolicyPartial, false},
		{"bogus", PolicyFail, true},
	} {
		got, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if PolicyPartial.String() != "partial" || PolicyFail.String() != "fail" {
		t.Errorf("String round trip broken")
	}
}

func TestFailoverToHealthyReplica(t *testing.T) {
	db := testDB(10)
	dead := newFake(db, func(int64) error { return errors.New("boom") })
	good := newFake(db, nil)

	g := NewRegistry(testConfig())
	s := g.Add("AD", dead, good)

	d := NewDiagnostics()
	r, err := drainOpen(s.Bind(d).Open(lqp.Retrieve("ALUMNUS")))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if r.Cardinality() != 10 {
		t.Errorf("cardinality = %d, want 10", r.Cardinality())
	}
	rep := d.Report()
	if rep.Retries != 1 {
		t.Errorf("retries = %d, want 1", rep.Retries)
	}
	if got := rep.Replicas["AD"]; len(got) != 1 || got[0] != "AD#1" {
		t.Errorf("replicas = %v, want [AD#1]", got)
	}

	// The dead replica is marked down, so the next call goes straight to
	// the healthy one — no retry booked.
	deadCalls := dead.calls.Load()
	d2 := NewDiagnostics()
	if _, err := drainOpen(s.Bind(d2).Open(lqp.Retrieve("ALUMNUS"))); err != nil {
		t.Fatalf("second Execute: %v", err)
	}
	if d2.Report().Retries != 0 {
		t.Errorf("second call retried %d times, want 0", d2.Report().Retries)
	}
	if dead.calls.Load() != deadCalls {
		t.Errorf("second call touched the dead replica")
	}
}

func TestExhaustedError(t *testing.T) {
	db := testDB(5)
	mk := func() lqp.LQP { return newFake(db, func(int64) error { return errors.New("boom") }) }
	cat := stats.NewCatalog()
	cfg := testConfig()
	cfg.Stats = cat
	g := NewRegistry(cfg)
	s := g.Add("AD", mk(), mk(), mk())

	_, err := drainOpen(s.Open(lqp.Retrieve("ALUMNUS")))
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if ex.Source != "AD" {
		t.Errorf("Source = %q", ex.Source)
	}
	// 3 replicas × (1 + MaxRetries) passes.
	if want := 3 * 2; ex.Attempts != want {
		t.Errorf("Attempts = %d, want %d", ex.Attempts, want)
	}
	fc := cat.Faults("AD")
	if fc.Errors != 6 || fc.Retries != 5 {
		t.Errorf("fault counters = %+v, want 6 errors, 5 retries", fc)
	}
}

func TestPerCallDeadline(t *testing.T) {
	db := testDB(5)
	hung := newFake(db, func(int64) error { time.Sleep(10 * time.Second); return nil })
	good := newFake(db, nil)
	cfg := testConfig()
	cfg.CallTimeout = 50 * time.Millisecond
	g := NewRegistry(cfg)
	s := g.Add("AD", hung, good)

	start := time.Now()
	r, err := drainOpen(s.Open(lqp.Retrieve("ALUMNUS")))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if r.Cardinality() != 5 {
		t.Errorf("cardinality = %d", r.Cardinality())
	}
	// One blown deadline + one fast call: far below the 10s hang.
	if e := time.Since(start); e > 2*time.Second {
		t.Errorf("call took %v despite per-call deadline", e)
	}
	for _, h := range g.Health() {
		if h.Replica == "AD#0" && h.Healthy {
			t.Errorf("hung replica still marked healthy")
		}
	}
}

func TestDeadlineErrorWhenAllHang(t *testing.T) {
	db := testDB(5)
	mk := func() lqp.LQP {
		return newFake(db, func(int64) error { time.Sleep(10 * time.Second); return nil })
	}
	cfg := testConfig()
	cfg.CallTimeout = 30 * time.Millisecond
	cfg.MaxRetries = 0
	g := NewRegistry(cfg)
	s := g.Add("AD", mk())

	_, err := drainOpen(s.Open(lqp.Retrieve("ALUMNUS")))
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("exhaustion cause = %v, want *DeadlineError", ex.Last)
	}
}

func TestHedgedOpenWinsOnSlowPrimary(t *testing.T) {
	db := testDB(50)
	slow := newFake(db, func(int64) error { time.Sleep(300 * time.Millisecond); return nil })
	fast := newFake(db, nil)
	cfg := testConfig()
	cfg.HedgeDelay = 5 * time.Millisecond
	cat := stats.NewCatalog()
	cfg.Stats = cat
	g := NewRegistry(cfg)
	s := g.Add("AD", slow, fast)

	d := NewDiagnostics()
	bound := s.Bind(d)
	start := time.Now()
	cur, err := bound.Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if e := time.Since(start); e > 200*time.Millisecond {
		t.Errorf("hedged open took %v, want well under the primary's 300ms", e)
	}
	if got := drain(t, cur).Cardinality(); got != 50 {
		t.Errorf("cardinality = %d", got)
	}
	rep := d.Report()
	if rep.Hedges != 1 {
		t.Errorf("hedges = %d, want 1", rep.Hedges)
	}
	if got := rep.Replicas["AD"]; len(got) != 1 || got[0] != "AD#1" {
		t.Errorf("winning replica = %v, want [AD#1]", got)
	}
	if cat.Faults("AD").Hedges != 1 {
		t.Errorf("catalog hedge counter = %d", cat.Faults("AD").Hedges)
	}
}

func TestAdaptiveHedgeDelayFromEstimator(t *testing.T) {
	db := testDB(5)
	cfg := testConfig()
	cfg.HedgeDelay = 0 // adaptive
	g := NewRegistry(cfg)
	s := g.Add("AD", newFake(db, nil), newFake(db, nil))

	// No estimate yet: adaptive hedging stays off.
	if hd := s.hedgeDelay(s.reps[0]); hd >= 0 {
		t.Errorf("hedge delay with empty estimator = %v, want disabled", hd)
	}
	s.reps[0].est.Observe(20 * time.Millisecond)
	hd := s.hedgeDelay(s.reps[0])
	if hd < cfg.HedgeMin || hd > cfg.CallTimeout {
		t.Errorf("adaptive hedge delay = %v out of range", hd)
	}
}

func TestMidStreamResume(t *testing.T) {
	const rows = 700 // several DefaultBatchSize batches
	db := testDB(rows)

	// Fault-free baseline.
	want, err := drainOpen(lqp.NewLocal(db).Open(lqp.Retrieve("ALUMNUS")))
	if err != nil {
		t.Fatal(err)
	}

	// Replica 0 cuts every stream after one delivered batch; replica 1 is
	// clean. The resumed stream must be exactly the uncut one.
	cut := faultinject.New(lqp.NewLocal(db), faultinject.Profile{CutEvery: 1, CutAfter: 1})
	g := NewRegistry(testConfig())
	s := g.Add("AD", cut, lqp.NewLocal(db))

	d := NewDiagnostics()
	cur, err := s.Bind(d).Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := drain(t, cur)
	if got.Cardinality() != rows {
		t.Fatalf("resumed stream has %d rows, want %d", got.Cardinality(), rows)
	}
	for i, tup := range got.Tuples {
		if !tup.Equal(want.Tuples[i]) {
			t.Fatalf("row %d diverges after resume: %v != %v", i, tup, want.Tuples[i])
		}
	}
	if _, _, _, cuts := cut.Injected(); cuts != 1 {
		t.Errorf("injected cuts = %d, want 1 (chaos must actually fire)", cuts)
	}
	rep := d.Report()
	if got := rep.Replicas["AD"]; len(got) != 2 {
		t.Errorf("contributing replicas = %v, want both", got)
	}
	if rep.Retries == 0 {
		t.Errorf("resume booked no retries")
	}
}

func TestSkipRowsStraddlingBatch(t *testing.T) {
	db := testDB(600)
	cur, err := lqp.NewLocal(db).Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	head, err := skipRows(cur, 300) // mid-batch offset (batches of 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 212 { // 512-300
		t.Fatalf("straddling head = %d rows, want 212", len(head))
	}
	if head[0][0] != rel.String("A00300") {
		t.Errorf("head starts at %v, want row 300", head[0][0])
	}
	rest := 0
	for {
		b, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rest += len(b)
	}
	if len(head)+rest != 300 {
		t.Errorf("resumed rows = %d, want 300", len(head)+rest)
	}
}

func TestSkipRowsDivergentSnapshot(t *testing.T) {
	db := testDB(10)
	cur, err := lqp.NewLocal(db).Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := skipRows(cur, 11); err == nil {
		t.Fatal("skip past the stream's end must error, not truncate silently")
	}
}

func TestCircuitBreakerShedsCalls(t *testing.T) {
	db := testDB(5)
	flaky := newFake(db, func(int64) error { return errors.New("boom") })
	good := newFake(db, nil)
	cfg := testConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	cfg.MaxRetries = 0
	g := NewRegistry(cfg)
	s := g.Add("AD", flaky, good)

	// Two failures open the breaker...
	drainOpen(s.Open(lqp.Retrieve("ALUMNUS")))
	s.reps[0].mu.Lock()
	s.reps[0].healthy = true // force it back into preference order
	s.reps[0].mu.Unlock()
	drainOpen(s.Open(lqp.Retrieve("ALUMNUS")))

	open := false
	for _, h := range g.Health() {
		if h.Replica == "AD#0" {
			open = h.BreakerOpen
		}
	}
	if !open {
		t.Fatalf("breaker not open after %d consecutive failures", cfg.BreakerThreshold)
	}

	// ...and while open, calls never touch the broken replica.
	before := flaky.calls.Load()
	for i := 0; i < 5; i++ {
		if _, err := drainOpen(s.Open(lqp.Retrieve("ALUMNUS"))); err != nil {
			t.Fatalf("Execute with breaker open: %v", err)
		}
	}
	if flaky.calls.Load() != before {
		t.Errorf("breaker-open replica still received calls")
	}
}

func TestRegistryProbesMarkHealth(t *testing.T) {
	db := testDB(5)
	deadLocal := faultinject.New(lqp.NewLocal(db), faultinject.Profile{ErrEvery: 1})
	goodLocal := faultinject.New(lqp.NewLocal(db), faultinject.Profile{})
	cfg := testConfig()
	cfg.ProbeTimeout = 100 * time.Millisecond
	g := NewRegistry(cfg)
	g.Add("AD", deadLocal, goodLocal)

	g.ProbeAll()
	byLabel := map[string]ReplicaHealth{}
	for _, h := range g.Health() {
		byLabel[h.Replica] = h
	}
	if byLabel["AD#0"].Healthy {
		t.Errorf("dead replica probed healthy")
	}
	if byLabel["AD#0"].LastError == "" {
		t.Errorf("dead replica has no recorded probe error")
	}
	if !byLabel["AD#1"].Healthy {
		t.Errorf("good replica probed unhealthy")
	}

	// The periodic loop runs and stops cleanly.
	cfg.ProbeInterval = 5 * time.Millisecond
	g2 := NewRegistry(cfg)
	g2.Add("AD", deadLocal, goodLocal)
	g2.Start()
	time.Sleep(25 * time.Millisecond)
	g2.Stop()
}

func TestDiagnosticsReport(t *testing.T) {
	d := NewDiagnostics()
	d.AddMissing("MD")
	d.AddMissing("DD")
	d.AddMissing("MD")
	d.addRetry(2)
	d.addHedge()
	d.addReplica("FD", "b")
	d.addReplica("FD", "a")
	rep := d.Report()
	if len(rep.Missing) != 2 || rep.Missing[0] != "DD" || rep.Missing[1] != "MD" {
		t.Errorf("Missing = %v", rep.Missing)
	}
	if !rep.Degraded() {
		t.Errorf("Degraded() = false")
	}
	if rep.Retries != 2 || rep.Hedges != 1 {
		t.Errorf("counters = %d retries, %d hedges", rep.Retries, rep.Hedges)
	}
	if got := rep.Replicas["FD"]; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Replicas = %v", got)
	}

	var nilDiag *Diagnostics
	nilDiag.AddMissing("x") // must not panic
	if nilDiag.Report().Degraded() {
		t.Errorf("nil diagnostics degraded")
	}
}

func TestSourceStatsAndRelations(t *testing.T) {
	db := testDB(7)
	g := NewRegistry(testConfig())
	s := g.Add("AD", newFake(db, func(int64) error { return errors.New("boom") }), lqp.NewLocal(db))

	rels, err := s.Relations()
	if err != nil || len(rels) != 1 || rels[0] != "ALUMNUS" {
		t.Errorf("Relations = %v, %v", rels, err)
	}
	st, err := s.Stats()
	if err != nil || len(st) != 1 || st[0].Rows != 7 {
		t.Errorf("Stats = %+v, %v", st, err)
	}
	r, err := drainOpen(s.OpenPlan(lqp.Plan{Ops: []lqp.Op{lqp.Retrieve("ALUMNUS")}}))
	if err != nil || r.Cardinality() != 7 {
		t.Errorf("ExecutePlan = %v, %v", r, err)
	}
}
