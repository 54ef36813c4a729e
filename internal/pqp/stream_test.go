package pqp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/rel"
	"repro/internal/translate"
	"repro/internal/wire"
	"repro/internal/workload"
)

// streamQueries are the SQL queries the engine-parity tests run: the
// paper's worked example plus shapes covering every PQP-resident operator
// family the translator emits.
var streamQueries = []string{
	`SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA"`,
	`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`,
	`SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`,
	`SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN
		(SELECT ONAME FROM PCAREER WHERE AID# IN
		(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))`,
}

// TestStreamingMatchesMaterializedOnPaperQueries: for the paper queries
// the engine's streamed answer matches the materializing Ref* reference
// evaluation cell for cell (data and both tag sets), and retain mode
// (ExecuteMaterialized) matches the streamed answer row for row.
func TestStreamingMatchesMaterializedOnPaperQueries(t *testing.T) {
	q := newPQP(t)
	for _, sql := range streamQueries {
		res, err := q.QuerySQL(sql) // Run → streaming Execute
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		wantReference(t, q, sql, res.Plan, res.Relation)
		mat, err := q.ExecuteMaterialized(res.Plan)
		if err != nil {
			t.Fatalf("%s: retain mode: %v", sql, err)
		}
		diffRows(t, sql+" [retain mode vs streaming]", render(mat), render(res.Relation))
	}
}

// TestStreamingMatchesMaterializedOnWorkload: reference parity on a
// synthetic federation whose Merge fans in several sources.
func TestStreamingMatchesMaterializedOnWorkload(t *testing.T) {
	f := workload.New(workload.Config{Databases: 4, Entities: 500, Overlap: 0.6, Categories: 7, Seed: 11})
	q := New(f.Schema, f.Registry, identity.Exact{}, f.LQPs())
	res, err := q.QuerySQL(`SELECT KEY, CAT FROM PENTITY WHERE CAT = "C3"`)
	if err != nil {
		t.Fatal(err)
	}
	wantReference(t, q, "workload", res.Plan, res.Relation)
}

// TestMergeFanoutMatchesReference: reference parity on the shape of the
// benchmark's merge-fanout workload — six overlapping sources with data
// conflicts, merged by every query. The benchmark checks its answers
// against retain mode, which runs the same Merge kernel as the engine; here
// the Merge rows are evaluated by the reference fold (RefMerge) instead.
func TestMergeFanoutMatchesReference(t *testing.T) {
	f := workload.New(workload.Config{Databases: 6, Entities: 2000, Overlap: 0.5, Categories: 8, ConflictRate: 0.1})
	q := New(f.Schema, f.Registry, identity.Exact{}, f.LQPs())
	for _, query := range []string{
		`PENTITY`,
		`(PENTITY [CAT = "cat1"]) [KEY, CAT, V0]`,
		`(PENTITY [CAT = "cat2"]) [KEY, V1, V3]`,
		`(PENTITY [CAT = "cat3"]) [KEY >= "E000500"]`,
	} {
		res, err := q.QueryAlgebra(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if res.Relation.Cardinality() == 0 {
			t.Fatalf("%s: empty answer", query)
		}
		wantReference(t, q, query, res.Plan, res.Relation)
	}
}

// TestLargeBuildsMatchReference: Join and Difference builds of several
// thousand rows — far beyond the paper's worked example — agree with the
// Ref* oracle cell for cell, beside the blocking Union and Intersect over
// the same selections. Under the race job's -cpu=2 this also runs the
// engine's prefetching retrieval against real interleavings.
func TestLargeBuildsMatchReference(t *testing.T) {
	f := workload.New(workload.Config{Databases: 2, Entities: 20000, Overlap: 0.6, Categories: 5, Seed: 9})
	q := New(f.Schema, f.Registry, nil, f.LQPs())
	for _, qt := range []string{
		// Difference of overlapping selections: the drop side carries
		// several thousand entities.
		`(PENTITY [CAT >= "cat1"]) MINUS (PENTITY [CAT = "cat3"])`,
		// A key join of two big selections.
		`((PENTITY [CAT >= "cat2"]) [KEY = KEY] (PENTITY [CAT <= "cat3"])) [KEY, CAT]`,
		`(PENTITY [CAT = "cat1"]) UNION (PENTITY [CAT = "cat2"])`,
		`(PENTITY [CAT >= "cat1"]) INTERSECT (PENTITY [CAT <= "cat3"])`,
	} {
		res, err := q.QueryAlgebra(qt)
		if err != nil {
			t.Fatalf("%s: %v", qt, err)
		}
		if res.Relation.Cardinality() == 0 {
			t.Fatalf("%s: empty answer; the comparison would be vacuous", qt)
		}
		wantReference(t, q, qt, res.Plan, res.Relation)
	}
}

// TestStreamingOverlapsLQPLatency: with three LQPs at injected latency, the
// Merge's retrieve fan-out overlaps under streaming execution — every local
// row is opened eagerly behind a prefetching reader — while retain mode,
// which drains each row before opening the next, pays one full round trip
// per local operation.
func TestStreamingOverlapsLQPLatency(t *testing.T) {
	const latency = 20 * time.Millisecond
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := newCounting(l)
		c.Latency = latency
		lqps[name] = c
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	e, err := translate.CompileSQL(`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`, q.Schema())
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run(e) // plan once; time the two modes below
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := q.ExecuteMaterialized(res.Plan); err != nil {
		t.Fatal(err)
	}
	retained := time.Since(start)
	start = time.Now()
	if _, err := q.Execute(res.Plan); err != nil {
		t.Fatal(err)
	}
	streaming := time.Since(start)
	if retained < 3*latency {
		t.Fatalf("retain-mode run too fast (%v); latency injection broken?", retained)
	}
	if streaming >= retained {
		t.Errorf("streaming (%v) not faster than retain mode (%v)", streaming, retained)
	}
}

// TestFailingRetrieveClosesPrefetch: a failing local row aborts the query
// with an error naming it while an earlier row's prefetching stream is
// already running, and that stream is closed rather than leaked.
func TestFailingRetrieveClosesPrefetch(t *testing.T) {
	q := newPQP(t)
	bad := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 2, Op: translate.OpRetrieve, LHR: translate.LocalOperand("NOSUCH"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 3, Op: translate.OpUnion, LHR: translate.RegOperand(1), RHA: translate.NoComparand(), RHR: translate.RegOperand(2), EL: "PQP"},
	}}
	if _, err := q.Execute(bad); err == nil || !strings.Contains(err.Error(), "NOSUCH") {
		t.Errorf("Execute error = %v, want one naming NOSUCH", err)
	}
	if _, err := q.ExecuteAll(bad); err == nil || !strings.Contains(err.Error(), "NOSUCH") {
		t.Errorf("ExecuteAll error = %v, want one naming NOSUCH", err)
	}
}

// TestStreamingSharedRegister: a register consumed twice (self-join)
// materializes once and feeds both operands; the answer matches the
// reference evaluation.
func TestStreamingSharedRegister(t *testing.T) {
	q := newPQP(t)
	plan := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 2, Op: translate.OpJoin, LHR: translate.RegOperand(1), LHA: []string{"ANAME"},
			Theta: rel.ThetaEQ, HasTheta: true, RHA: translate.AttrComparand("ANAME"),
			RHR: translate.RegOperand(1), EL: "PQP"},
	}}
	str, err := q.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if str.Cardinality() == 0 {
		t.Fatal("self-join returned nothing")
	}
	wantReference(t, q, "shared register", plan, str)
}

// TestStreamingRedefinedRegisterFallsBack: a plan that reassigns a register
// cannot stream (a pending cursor would be clobbered), so it compiles in
// retain mode — every row drained as it is defined, none streamed — and
// answers with the register's last definition, like the reference.
func TestStreamingRedefinedRegisterFallsBack(t *testing.T) {
	q := newPQP(t)
	plan := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("CAREER"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
	}}
	var trace []string
	q.Trace = func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }
	got, err := q.Execute(plan)
	q.Trace = nil
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 {
		t.Fatalf("trace = %q, want one line per row", trace)
	}
	for _, line := range trace {
		if strings.HasSuffix(line, "streamed") {
			t.Errorf("redefining plan streamed a row: %q", line)
		}
	}
	if got.Name != "CAREER" {
		t.Errorf("answer is %q, want the last definition (CAREER)", got.Name)
	}
	wantReference(t, q, "redefined register", plan, got)
}

// TestStreamingBadPlans: malformed plans are rejected, streaming and in
// retain mode alike.
func TestStreamingBadPlans(t *testing.T) {
	q := newPQP(t)
	bad := []*translate.Matrix{
		{},
		{Rows: []translate.Row{{PR: 1, Op: translate.OpProject, LHR: translate.RegOperand(42),
			LHA: []string{"X"}, RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP"}}},
		{Rows: []translate.Row{{PR: 1, Op: translate.OpMerge, LHR: translate.RegOperand(1),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP"}}},
		{Rows: []translate.Row{{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "NOSUCHDB"}}},
	}
	for i, plan := range bad {
		if _, err := q.Execute(plan); err == nil {
			t.Errorf("bad plan %d accepted by Execute", i)
		}
		if _, err := q.ExecuteAll(plan); err == nil {
			t.Errorf("bad plan %d accepted by ExecuteAll", i)
		}
	}
}

// TestStreamingPreservesLQPOpOrder: streaming issues exactly the local
// operations of retain mode, in the same order — eager plan-order opens
// keep counting-based pushdown assertions meaningful.
func TestStreamingPreservesLQPOpOrder(t *testing.T) {
	fed := paperdata.New()
	counters := make(map[string]*counting, 3)
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := newCounting(l)
		counters[name] = c
		lqps[name] = c
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	res, err := q.QuerySQL(streamQueries[3]) // streaming run
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(map[string]string)
	for name, c := range counters {
		ops := c.Ops()
		strs := make([]string, len(ops))
		for i, op := range ops {
			strs[i] = op.String()
		}
		streamed[name] = strings.Join(strs, "; ")
		c.Reset()
	}
	if _, err := q.ExecuteMaterialized(res.Plan); err != nil {
		t.Fatal(err)
	}
	for name, c := range counters {
		ops := c.Ops()
		strs := make([]string, len(ops))
		for i, op := range ops {
			strs[i] = op.String()
		}
		if got := strings.Join(strs, "; "); got != streamed[name] {
			t.Errorf("%s op sequence diverged:\nstreaming:   %s\nretain mode: %s", name, streamed[name], got)
		}
	}
}

// TestStreamingOverTCP: the full Figure-1 path — PQP against three lqpd-style
// wire servers — streams row frames end to end and matches the in-process
// answer.
func TestStreamingOverTCP(t *testing.T) {
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	servers := []*wire.Server{wire.NewServer(fed.AD), wire.NewServer(fed.PD), wire.NewServer(fed.CD)}
	for _, srv := range servers {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		lqps[client.Name()] = client
	}
	remote := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	local := newPQP(t)
	for _, sql := range streamQueries {
		rr, err := remote.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s (remote): %v", sql, err)
		}
		lr, err := local.QuerySQL(sql)
		if err != nil {
			t.Fatalf("%s (local): %v", sql, err)
		}
		a, b := strings.Join(render(rr.Relation), "\n"), strings.Join(render(lr.Relation), "\n")
		if a != b {
			t.Errorf("%s: remote streaming answer diverged:\nremote:\n%s\nlocal:\n%s", sql, a, b)
		}
	}
}
