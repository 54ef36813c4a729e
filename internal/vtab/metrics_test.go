package vtab

import (
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mediator"
	"repro/internal/wire"
)

var (
	metricComment = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	metricSample  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
)

// TestMetricsFormat scrapes a live handler and validates the exposition
// against the Prometheus text format: every line is a well-formed comment
// or sample, every sample's family is TYPE-declared before it, and the
// values agree with the V$ sources they render.
func TestMetricsFormat(t *testing.T) {
	h := newHarness(t, mediator.Config{Federation: "metrics"})
	info, err := h.svc.OpenSession(wire.SessionOptions{})
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for _, q := range harnessQueries() {
		if _, err := h.svc.Query(info.ID, q, true); err != nil {
			t.Fatalf("Query: %v", err)
		}
	}

	rec := httptest.NewRecorder()
	h.vt.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != metricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metricsContentType)
	}
	body := rec.Body.String()
	if !strings.HasSuffix(body, "\n") {
		t.Error("exposition does not end in a newline")
	}

	declared := map[string]bool{}
	values := map[string]string{} // unlabelled samples only
	for i, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			if !metricComment.MatchString(line) {
				t.Errorf("line %d: malformed TYPE comment: %q", i+1, line)
				continue
			}
			name := strings.Fields(line)[2]
			if declared[name] {
				t.Errorf("line %d: family %s TYPE-declared twice", i+1, name)
			}
			declared[name] = true
		case strings.HasPrefix(line, "#"):
			if !metricComment.MatchString(line) {
				t.Errorf("line %d: malformed comment: %q", i+1, line)
			}
		default:
			m := metricSample.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("line %d: malformed sample: %q", i+1, line)
				continue
			}
			if !declared[m[1]] {
				t.Errorf("line %d: sample for %s precedes its TYPE declaration", i+1, m[1])
			}
			if m[2] == "" {
				values[m[1]] = line[strings.LastIndex(line, " ")+1:]
			}
		}
	}

	// Spot-check the families against their sources.
	intValue := func(name string) int64 {
		t.Helper()
		raw, ok := values[name]
		if !ok {
			t.Fatalf("exposition lacks %s", name)
		}
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			t.Fatalf("%s value %q: %v", name, raw, err)
		}
		return n
	}
	if up := intValue("polygen_up"); up != 1 {
		t.Errorf("polygen_up = %d, want 1", up)
	}
	if got, want := intValue("polygen_sessions_open"), int64(h.svc.SessionCount()); got != want {
		t.Errorf("polygen_sessions_open = %d, want %d", got, want)
	}
	st := h.proc.Plans.Stats()
	if got := intValue("polygen_plan_cache_hits_total"); got != int64(st.Hits) {
		t.Errorf("polygen_plan_cache_hits_total = %d, cache reports %d", got, st.Hits)
	}
	if got := intValue("polygen_plan_cache_misses_total"); got != int64(st.Misses) {
		t.Errorf("polygen_plan_cache_misses_total = %d, cache reports %d", got, st.Misses)
	}
	if got, want := intValue("polygen_queries_total"), int64(h.svc.Counters().Queries); got != want {
		t.Errorf("polygen_queries_total = %d, service reports %d", got, want)
	}
	for _, labelled := range []string{"polygen_replica_healthy", "polygen_replica_calls_total"} {
		if !declared[labelled] {
			t.Errorf("exposition lacks the %s family", labelled)
		}
	}
	// Fault families render only once a fault was booked (empty families
	// are suppressed); book one and re-scrape.
	h.faults.ObserveError("FD")
	rec = httptest.NewRecorder()
	h.vt.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `polygen_source_errors_total{source="FD"} 1`) {
		t.Error("booked fault missing from polygen_source_errors_total")
	}

	// Label values with quotes and backslashes must escape cleanly.
	if got := escapeLabel(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Errorf("escapeLabel = %q", got)
	}
}
