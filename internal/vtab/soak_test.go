package vtab

// Tentpole harness: a closed-loop workload.Drive against a live polygend
// stack over TCP while a concurrent observer queries the V$ tables over the
// same wire, asserting the cross-layer accounting invariants end to end:
//
//   - sessions open == rows in V$SESSION
//   - V$PLAN_CACHE hits+misses == statements issued (exact at quiesce,
//     an upper bound while the loop runs)
//   - V$SOURCE_STATS latency estimators are finite with monotone call counts
//   - V$FAULT matches the federation diagnostics (all-zero: no faults here)
//
// CI runs this under -race as its own pinned-duration smoke step.

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mediator"
	"repro/internal/wire"
	"repro/internal/workload"
)

// lockedBuf is an io.Writer safe to read after concurrent writers quiesce.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestSoakObservability(t *testing.T) {
	const (
		clients      = 4
		opsPerClient = 30
	)
	slowLog := &lockedBuf{}
	h := newHarness(t, mediator.Config{
		Federation: "soak",
		SlowQuery:  time.Nanosecond, // every statement logs: the lines are part of the audit
		SlowLog:    slowLog,
	})
	srv := wire.NewMediatorServer(h.svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// issued counts every statement sent to the mediator — workload and
	// observer alike, bumped before the request goes out. Every accepted
	// statement performs exactly one plan-cache Get before executing, so at
	// any instant hits+misses <= issued, with equality once the loop drains.
	var issued atomic.Uint64

	queries := harnessQueries()
	workers := make([]*wire.Client, clients)
	sessions := make([]string, clients)
	for w := range workers {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatalf("Dial worker %d: %v", w, err)
		}
		defer c.Close()
		info, err := c.OpenSession()
		if err != nil {
			t.Fatalf("OpenSession worker %d: %v", w, err)
		}
		workers[w], sessions[w] = c, info.ID
	}

	obs, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("Dial observer: %v", err)
	}
	defer obs.Close()
	if _, err := obs.OpenSession(); err != nil { // interns sources for tag decoding
		t.Fatalf("OpenSession observer: %v", err)
	}
	obsSession := "" // observer stays sessionless: no V$SESSION/V$STMT footprint
	observe := func(query string) *wire.QueryAnswer {
		t.Helper()
		issued.Add(1)
		ans, err := obs.Query(obsSession, query, true)
		if err != nil {
			t.Fatalf("observer %q: %v", query, err)
		}
		return ans
	}

	done := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		var prevGets uint64
		prevCalls := map[string]int64{}
		for round := 0; ; round++ {
			select {
			case <-done:
				return
			default:
			}

			ans := observe(`V$SESSION [SID, QUERIES, ERRORS]`)
			// The workload's sessions all pre-exist the loop; the observer is
			// sessionless — so V$SESSION must hold exactly the open sessions.
			if got := len(ans.Relation.Tuples); got != clients+1 { // +1: the observer's (idle) session
				t.Errorf("V$SESSION has %d rows, want %d open sessions", got, clients+1)
			}

			ans = observe(`V$PLAN_CACHE [CACHE, ENTRIES, HITS, MISSES, EVICTIONS]`)
			c := ans.Relation
			gets := uint64(intCol(t, c, 0, "HITS") + intCol(t, c, 0, "MISSES"))
			if gets < prevGets {
				t.Errorf("V$PLAN_CACHE hits+misses shrank: %d -> %d", prevGets, gets)
			}
			prevGets = gets
			if ceiling := issued.Load(); gets > ceiling {
				t.Errorf("V$PLAN_CACHE hits+misses = %d exceeds statements issued %d", gets, ceiling)
			}
			if entries := intCol(t, c, 0, "ENTRIES"); entries > 32 {
				t.Errorf("V$PLAN_CACHE ENTRIES = %d exceeds capacity 32", entries)
			}

			ans = observe(`V$SOURCE_STATS [SOURCE, REPLICA, CALLS, MEAN_US, P95_US]`)
			for i := range ans.Relation.Tuples {
				key := strCol(t, ans.Relation, i, "SOURCE") + "#" + strCol(t, ans.Relation, i, "REPLICA")
				calls, mean, p95 := intCol(t, ans.Relation, i, "CALLS"), intCol(t, ans.Relation, i, "MEAN_US"), intCol(t, ans.Relation, i, "P95_US")
				if calls < prevCalls[key] {
					t.Errorf("V$SOURCE_STATS CALLS for %s shrank: %d -> %d", key, prevCalls[key], calls)
				}
				prevCalls[key] = calls
				if mean < 0 || p95 < 0 {
					t.Errorf("V$SOURCE_STATS %s has negative latency estimate (mean %d, p95 %d)", key, mean, p95)
				}
			}

			ans = observe(`V$FAULT [SOURCE, ERRORS, RETRIES, HEDGES]`)
			for i := range ans.Relation.Tuples {
				src := strCol(t, ans.Relation, i, "SOURCE")
				for _, col := range []string{"ERRORS", "RETRIES", "HEDGES"} {
					if n := intCol(t, ans.Relation, i, col); n != 0 {
						t.Errorf("fault-free soak: V$FAULT %s %s = %d, want 0", src, col, n)
					}
				}
			}
		}
	}()

	res := workload.Drive(clients, opsPerClient, func(w, i int) error {
		issued.Add(1)
		_, err := workers[w].Query(sessions[w], queries[i%len(queries)], true)
		return err
	})
	close(done)
	obsWG.Wait()
	if res.Errors != 0 {
		t.Fatalf("workload errors: %s", res.String())
	}
	t.Logf("soak: %s", res.String())

	// Quiesced: the invariants tighten to equalities. The final counted
	// statement's own cache Get lands before its V$ snapshot, so the answer
	// counts itself.
	ans := observe(`V$PLAN_CACHE [CACHE, HITS, MISSES]`)
	gets := uint64(intCol(t, ans.Relation, 0, "HITS") + intCol(t, ans.Relation, 0, "MISSES"))
	if want := issued.Load(); gets != want {
		t.Errorf("at quiesce V$PLAN_CACHE hits+misses = %d, want exactly %d statements issued", gets, want)
	}

	ans = observe(`V$SESSION [SID, QUERIES, ERRORS, CACHE_HITS]`)
	if got := len(ans.Relation.Tuples); got != clients+1 {
		t.Errorf("V$SESSION has %d rows, want %d", got, clients+1)
	}
	var trailTotal int64
	for i := range ans.Relation.Tuples {
		trailTotal += intCol(t, ans.Relation, i, "QUERIES")
		if errs := intCol(t, ans.Relation, i, "ERRORS"); errs != 0 {
			t.Errorf("session %s has %d errored statements, want 0", strCol(t, ans.Relation, i, "SID"), errs)
		}
	}
	if want := int64(clients * opsPerClient); trailTotal != want {
		t.Errorf("V$SESSION QUERIES total = %d, want %d workload statements", trailTotal, want)
	}

	ans = observe(`V$STMT [STMT_ID, SID]`)
	if got, want := len(ans.Relation.Tuples), clients*opsPerClient; got != want {
		t.Errorf("V$STMT has %d rows, want %d audited statements", got, want)
	}

	// Every source took traffic: the mix touches FD, DD and MD.
	ans = observe(`V$SOURCE_STATS [SOURCE, REPLICA, CALLS]`)
	calls := map[string]int64{}
	for i := range ans.Relation.Tuples {
		calls[strCol(t, ans.Relation, i, "SOURCE")] += intCol(t, ans.Relation, i, "CALLS")
	}
	for _, src := range []string{"FD", "DD", "MD"} {
		if calls[src] == 0 {
			t.Errorf("V$SOURCE_STATS shows no calls against %s", src)
		}
	}

	// Service counters agree with the client-side count, and the slow-query
	// log carries one well-formed JSON line per statement (threshold 1ns).
	counters := h.svc.Counters()
	if counters.Queries != issued.Load() {
		t.Errorf("service counted %d queries, client issued %d", counters.Queries, issued.Load())
	}
	if counters.QueryErrors != 0 {
		t.Errorf("service counted %d query errors, want 0", counters.QueryErrors)
	}
	lines := strings.Split(strings.TrimSpace(slowLog.String()), "\n")
	if uint64(len(lines)) != counters.Slow {
		t.Errorf("slow log has %d lines, service counted %d slow statements", len(lines), counters.Slow)
	}
	for _, line := range lines {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
		}
		for _, key := range []string{"time", "text", "duration_ms"} {
			if _, ok := entry[key]; !ok {
				t.Errorf("slow-query line lacks %q: %s", key, line)
			}
		}
	}

	// Closing the sessions empties V$SESSION.
	for w, c := range workers {
		if err := c.CloseSession(sessions[w]); err != nil {
			t.Fatalf("CloseSession: %v", err)
		}
	}
	ans = observe(`V$SESSION [SID]`)
	if got := len(ans.Relation.Tuples); got != 1 { // only the observer's idle session remains
		t.Errorf("after closing workload sessions V$SESSION has %d rows, want 1", got)
	}
}
