package vtab

// Satellite property suite: every V$ relation round-trips the engine —
// in process, materialized and streaming — and the wire (the unary tagged
// answer and the binary columnar stream) cell- and tag-identically. The
// observed sources are frozen before the matrix runs: the parity queries
// execute on separate PQPs with their own plan caches and (absent)
// statistics catalogs, so every leg re-snapshots the same immutable
// counters and must render the same lines.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mediator"
	"repro/internal/pqp"
	"repro/internal/translate"
	"repro/internal/wire"
)

// crossSourceQuery joins a V$ table with a real federated relation.
const crossSourceQuery = `(V$PLAN_CACHE [CACHE <> DCAT] (PDIM [DCAT = "dcat0"])) [CACHE, CAPACITY, DCAT]`

// parityQueries covers every V$ table plus the join shapes V$ x V$ and
// V$ x real federated relation.
var parityQueries = []string{
	`V$SESSION [SID, CREATED, LAST_USED, QUERIES, ERRORS, CACHE_HITS, POLICY]`,
	`V$STMT [STMT_ID, SID, SEQ, STARTED, KIND, STMT_TEXT, DURATION_US, ROWS, CACHE_HIT, MISSING, ERROR]`,
	`V$PLAN_CACHE [CACHE, CAPACITY, ENTRIES, HITS, MISSES, EVICTIONS]`,
	`V$SOURCE_STATS [SOURCE, REPLICA, HEALTHY, BREAKER_OPEN, CALLS, MEAN_US, P95_US, LINK_EWMA_US, LAST_ERROR]`,
	`V$FAULT [SOURCE, ERRORS, RETRIES, HEDGES]`,
	`(V$STMT [SID = SID] V$SESSION) [STMT_ID, SEQ, KIND, POLICY]`,
	`(V$FAULT [SOURCE = SOURCE] V$SOURCE_STATS) [SOURCE, ERRORS, REPLICA, HEALTHY]`,
	crossSourceQuery,
	`V$SHARD [SOURCE, SHARD, SHARDS, REPLICA, HEALTHY, ROWS]`,
}

func TestEngineMatrixParity(t *testing.T) {
	h := newHarness(t, mediator.Config{Federation: "parity"})

	// Populate the observed state, then freeze: sessions with audit trails
	// (successes and one failure), plan-cache traffic, source estimators.
	for s := 0; s < 2; s++ {
		info, err := h.svc.OpenSession(wire.SessionOptions{})
		if err != nil {
			t.Fatalf("OpenSession: %v", err)
		}
		for _, q := range harnessQueries() {
			if _, err := h.svc.Query(info.ID, q, true); err != nil {
				t.Fatalf("populate %q: %v", q, err)
			}
		}
		if _, err := h.svc.Query(info.ID, `PFACT [NO_SUCH_ATTR = "x"]`, true); err == nil {
			t.Fatal("expected the bad populate query to fail")
		}
	}

	// Separate querying engines over the same frozen sources: private plan
	// caches, no statistics catalog — nothing they do moves the counters
	// the V$ snapshots read.
	newQueryPQP := func() *pqp.PQP {
		lqps := h.star.LQPs()
		lqps[SourceName] = h.vt
		schema, err := AugmentSchema(h.star.Schema)
		if err != nil {
			t.Fatalf("AugmentSchema: %v", err)
		}
		return pqp.New(schema, h.star.Registry, nil, lqps)
	}
	local := newQueryPQP()

	// Wire legs: a second mediator over its own PQP serves the same vt.
	wireSvc := mediator.New(newQueryPQP(), mediator.Config{Federation: "parity-wire"})
	srv := wire.NewMediatorServer(wireSvc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	info, err := client.OpenSession() // pre-interns sources in canonical order
	if err != nil {
		t.Fatalf("OpenSession over wire: %v", err)
	}
	sess := info.ID

	for _, query := range parityQueries {
		expr, err := translate.ParseExpr(query)
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}

		res, err := local.Run(expr)
		if err != nil {
			t.Fatalf("run %q: %v", query, err)
		}
		want := taggedRows(res.Relation)

		legs := map[string][]string{}
		if cur, _, err := local.Open(expr); err != nil {
			t.Fatalf("open %q: %v", query, err)
		} else {
			legs["in-process-stream"] = drainTagged(t, cur)
		}
		if ans, err := client.Query(sess, query, true); err != nil {
			t.Fatalf("wire query %q: %v", query, err)
		} else {
			legs["wire-materialized"] = taggedRows(ans.Relation)
		}
		if cur, _, err := client.OpenQuery(sess, query, true); err != nil {
			t.Fatalf("wire open %q: %v", query, err)
		} else {
			legs["wire-stream"] = drainTagged(t, cur)
		}

		for leg, got := range legs {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s diverges on %q:\n  in-process: %v\n  %s: %v", leg, query, want, leg, got)
			}
		}
		if len(want) == 0 {
			t.Errorf("%q returned no rows — parity vacuous", query)
		}
	}

	// The V$ x real join must compose tags across source kinds: the V$
	// origin and the dimension source in one tuple.
	res, err := local.QueryAlgebra(crossSourceQuery)
	if err != nil {
		t.Fatalf("tag query: %v", err)
	}
	lines := taggedRows(res.Relation)
	if len(lines) == 0 {
		t.Fatal("V$ x PDIM join returned no rows")
	}
	joined := ""
	for _, l := range lines {
		joined += l + "\n"
	}
	for _, wantTag := range []string{"{V$}", "{DD}"} {
		if !strings.Contains(joined, wantTag) {
			t.Errorf("V$ x PDIM join output lacks %s tags:\n%s", wantTag, joined)
		}
	}
}
