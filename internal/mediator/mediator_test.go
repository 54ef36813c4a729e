package mediator

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/wire"
)

const (
	sqlBanking = `SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`
	algMBA     = `( PALUMNUS [DEGREE = "MBA"] ) [ANAME]`
)

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	fed := paperdata.New()
	q := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	return New(q, cfg)
}

// serveMediator exposes svc over TCP and dials a client.
func serveMediator(t *testing.T, svc *Service) *wire.Client {
	t.Helper()
	srv := wire.NewMediatorServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// canon renders a tagged relation registry-independently: every cell as
// datum plus sorted source-name sets, rows sorted. Two relations with equal
// canon are cell-for-cell equal regardless of interning order.
func canon(p *core.Relation) []string {
	rows := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		var b strings.Builder
		for i, c := range t {
			if i > 0 {
				b.WriteString(" | ")
			}
			o := c.O.Names(p.Reg)
			sort.Strings(o)
			in := c.I.Names(p.Reg)
			sort.Strings(in)
			fmt.Fprintf(&b, "%s {%s} {%s}", c.D, strings.Join(o, ","), strings.Join(in, ","))
		}
		rows = append(rows, b.String())
	}
	sort.Strings(rows)
	return rows
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSessionHandshake(t *testing.T) {
	svc := newService(t, Config{Federation: "paperfed"})
	c := serveMediator(t, svc)
	if c.Name() != "paperfed" {
		t.Errorf("server name = %q, want the federation name", c.Name())
	}
	info, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Federation != "paperfed" {
		t.Errorf("session info = %+v", info)
	}
	if strings.Join(info.Sources, ",") != "AD,PD,CD" {
		t.Errorf("handshake sources = %v, want the registry's canonical order", info.Sources)
	}
	if len(info.Schemes) == 0 {
		t.Fatal("handshake carried no schemes")
	}
	names := make(map[string]wire.SchemeInfo, len(info.Schemes))
	for _, si := range info.Schemes {
		names[si.Name] = si
	}
	pa, ok := names["PALUMNUS"]
	if !ok {
		t.Fatalf("PALUMNUS missing from schemes %v", info.Schemes)
	}
	if pa.Key == "" || len(pa.Attrs) == 0 || len(pa.Attrs[0].Mapping) == 0 {
		t.Errorf("PALUMNUS metadata incomplete: %+v", pa)
	}
	if svc.SessionCount() != 1 {
		t.Errorf("SessionCount = %d", svc.SessionCount())
	}
}

// TestQueryMatchesDirect: the answer a remote client gets — tags included —
// is cell-for-cell the answer the shared PQP computes directly, for both
// the SQL and the algebra front end and both transfer shapes.
func TestQueryMatchesDirect(t *testing.T) {
	svc := newService(t, Config{})
	c := serveMediator(t, svc)
	info, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		text      string
		algebraic bool
	}{{sqlBanking, false}, {algMBA, true}} {
		var direct *pqp.Result
		var derr error
		if tc.algebraic {
			direct, derr = svc.PQP().QueryAlgebra(tc.text)
		} else {
			direct, derr = svc.PQP().QuerySQL(tc.text)
		}
		if derr != nil {
			t.Fatal(derr)
		}
		want := canon(direct.Relation)

		ans, err := c.Query(info.ID, tc.text, tc.algebraic)
		if err != nil {
			t.Fatal(err)
		}
		if got := canon(ans.Relation); !sameRows(got, want) {
			t.Errorf("query %q: remote answer differs\n got: %v\nwant: %v", tc.text, got, want)
		}
		if len(ans.PlanRows) == 0 {
			t.Errorf("query %q returned no plan", tc.text)
		}

		cur, sans, err := c.OpenQuery(info.ID, tc.text, tc.algebraic)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := core.Drain(cur)
		if err != nil {
			t.Fatal(err)
		}
		if got := canon(streamed); !sameRows(got, want) {
			t.Errorf("queryopen %q: streamed answer differs\n got: %v\nwant: %v", tc.text, got, want)
		}
		if len(sans.PlanRows) == 0 {
			t.Errorf("queryopen %q returned no plan", tc.text)
		}
	}
}

// TestPlanCacheAcrossClients: the second identical query — even from a
// different session — hits the shared plan cache.
func TestPlanCacheAcrossClients(t *testing.T) {
	svc := newService(t, Config{})
	c := serveMediator(t, svc)
	s1, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Query(s1.ID, sqlBanking, false)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first query reported a cache hit")
	}
	second, err := c.Query(s2.ID, sqlBanking, false)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical query missed the plan cache")
	}
}

func TestTrailRecords(t *testing.T) {
	svc := newService(t, Config{})
	c := serveMediator(t, svc)
	info, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(info.ID, sqlBanking, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(info.ID, "SELECT NOPE FROM NOWHERE", false); err == nil {
		t.Fatal("bad query succeeded")
	}
	sess, ok := svc.Session(info.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	_, trail := sess.Snapshot()
	if len(trail) != 2 {
		t.Fatalf("trail has %d entries, want 2: %+v", len(trail), trail)
	}
	if trail[0].Text != sqlBanking || trail[0].Err != "" || trail[0].Rows < 1 {
		t.Errorf("success entry = %+v", trail[0])
	}
	if trail[1].Err == "" {
		t.Errorf("failure entry carries no error: %+v", trail[1])
	}
}

func TestTrailBounded(t *testing.T) {
	svc := newService(t, Config{TrailLimit: 3})
	info, err := svc.OpenSession(wire.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := svc.Query(info.ID, sqlBanking, false); err != nil {
			t.Fatal(err)
		}
	}
	sess, _ := svc.Session(info.ID)
	if _, trail := sess.Snapshot(); len(trail) != 3 {
		t.Fatalf("trail has %d entries, want the 3 most recent", len(trail))
	}
}

func TestSessionLifecycle(t *testing.T) {
	svc := newService(t, Config{})
	c := serveMediator(t, svc)
	// Sessionless queries work (and audit nowhere).
	if _, err := c.Query("", sqlBanking, false); err != nil {
		t.Fatalf("sessionless query: %v", err)
	}
	// Unknown sessions are refused.
	if _, err := c.Query("s-bogus", sqlBanking, false); err == nil {
		t.Fatal("unknown session accepted")
	}
	info, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(info.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(info.ID); err == nil {
		t.Fatal("double CloseSession succeeded")
	}
	if _, err := c.Query(info.ID, sqlBanking, false); err == nil {
		t.Fatal("closed session accepted a query")
	}
}

func TestSessionBoundAndExpiry(t *testing.T) {
	svc := newService(t, Config{MaxSessions: 2, SessionIdle: 10 * time.Millisecond})
	a, err := svc.OpenSession(wire.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession(wire.SessionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.OpenSession(wire.SessionOptions{}); err == nil {
		t.Fatal("session table bound not enforced")
	}
	// After the idle expiry both sessions are prunable; admission resumes.
	time.Sleep(20 * time.Millisecond)
	if _, err := svc.OpenSession(wire.SessionOptions{}); err != nil {
		t.Fatalf("expired sessions not pruned: %v", err)
	}
	if _, ok := svc.Session(a.ID); ok {
		t.Error("idle session survived pruning")
	}
}
