package vtab

// This file renders the same source snapshots the V$ tables serve as a
// Prometheus text-format exposition (/metrics). The metric families map
// 1:1 onto V$ columns — see the name-mapping table in docs/ARCHITECTURE.md
// — so a dashboard and a polygen query read the same counters.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/store"
)

// metricsContentType is the Prometheus text exposition format version.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler returns an http.Handler serving the bound sources'
// counters in Prometheus text format. Each request takes fresh snapshots
// under the same per-owner synchronization as the V$ tables.
func (v *Tables) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metricsContentType)
		var b strings.Builder
		v.writeMetrics(&b)
		_, _ = w.Write([]byte(b.String()))
	})
}

// sample is one metric sample: optional labels plus a value.
type sample struct {
	labels string // rendered `{k="v",...}`, "" for none
	value  string
}

// family writes one metric family: HELP/TYPE header plus samples sorted by
// label set, so output is deterministic.
func family(b *strings.Builder, name, typ, help string, samples []sample) {
	if len(samples) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
	for _, s := range samples {
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, s.value)
	}
}

func gauge(b *strings.Builder, name, help string, samples ...sample) {
	family(b, name, "gauge", help, samples)
}

func counter(b *strings.Builder, name, help string, samples ...sample) {
	family(b, name, "counter", help, samples)
}

func num(v int64) sample { return sample{value: fmt.Sprintf("%d", v)} }

func boolVal(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

func seconds(d time.Duration) string { return fmt.Sprintf("%g", d.Seconds()) }

// escapeLabel escapes a Prometheus label value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func labels(kv ...string) string {
	var parts []string
	for i := 0; i+1 < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, kv[i], escapeLabel(kv[i+1])))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (v *Tables) writeMetrics(b *strings.Builder) {
	s := v.sources()

	gauge(b, "polygen_up", "Whether the mediator is serving.", num(1))

	if s.Sessions != nil {
		gauge(b, "polygen_sessions_open", "Live sessions in the mediator's session table.",
			num(int64(s.Sessions.SessionCount())))
		c := s.Sessions.Counters()
		counter(b, "polygen_queries_total", "Statements accepted by the mediator, failed ones included.",
			num(int64(c.Queries)))
		counter(b, "polygen_query_errors_total", "Statements that failed (parse or execution).",
			num(int64(c.QueryErrors)))
		counter(b, "polygen_slow_queries_total", "Statements that crossed the slow-query threshold.",
			num(int64(c.Slow)))
	}

	if s.Plans != nil {
		st := s.Plans.Stats()
		counter(b, "polygen_plan_cache_hits_total", "Plan cache hits.", num(int64(st.Hits)))
		counter(b, "polygen_plan_cache_misses_total", "Plan cache misses.", num(int64(st.Misses)))
		counter(b, "polygen_plan_cache_evictions_total", "Plans dropped by the LRU bound.", num(int64(st.Evictions)))
		gauge(b, "polygen_plan_cache_entries", "Plans currently cached.", num(int64(st.Entries)))
		gauge(b, "polygen_plan_cache_capacity", "Plan cache capacity bound.", num(int64(s.Plans.Cap())))
	}

	if s.Registry != nil {
		var healthy, breaker, calls, mean, p95 []sample
		for _, h := range s.Registry.Health() {
			l := labels("source", h.Source, "replica", h.Replica)
			healthy = append(healthy, sample{labels: l, value: boolVal(h.Healthy)})
			breaker = append(breaker, sample{labels: l, value: boolVal(h.BreakerOpen)})
			calls = append(calls, sample{labels: l, value: fmt.Sprintf("%d", h.Calls)})
			mean = append(mean, sample{labels: l, value: seconds(h.MeanLatency)})
			p95 = append(p95, sample{labels: l, value: seconds(h.P95)})
		}
		family(b, "polygen_replica_healthy", "gauge", "Replica last-known liveness (1 healthy).", healthy)
		family(b, "polygen_replica_breaker_open", "gauge", "Replica circuit breaker currently rejecting calls.", breaker)
		family(b, "polygen_replica_calls_total", "counter", "Successful calls observed by the replica's latency estimator.", calls)
		family(b, "polygen_replica_latency_mean_seconds", "gauge", "Replica call latency EWMA mean.", mean)
		family(b, "polygen_replica_latency_p95_seconds", "gauge", "Replica call latency tail estimate (mean+3*deviation).", p95)

		var shardHealthy, shardRows []sample
		seenShard := make(map[string]bool)
		for _, si := range s.Registry.Shards() {
			l := labels("source", si.Source, "shard", fmt.Sprintf("%d", si.Shard), "replica", si.Replica)
			shardHealthy = append(shardHealthy, sample{labels: l, value: boolVal(si.Healthy)})
			// Rows are metered per shard leg, not per replica: emit one
			// sample per (source, shard) so sums across the family equal
			// rows gathered.
			sl := labels("source", si.Source, "shard", fmt.Sprintf("%d", si.Shard))
			if !seenShard[sl] {
				seenShard[sl] = true
				shardRows = append(shardRows, sample{labels: sl, value: fmt.Sprintf("%d", si.Rows)})
			}
		}
		family(b, "polygen_shard_replica_healthy", "gauge", "Shard replica last-known liveness (1 healthy).", shardHealthy)
		family(b, "polygen_shard_rows_total", "counter", "Rows each shard has served into gathered answers.", shardRows)
	}

	if s.Stats != nil {
		if c := s.Stats(); c != nil {
			var link []sample
			for db, d := range c.Latencies() {
				link = append(link, sample{labels: labels("source", db), value: seconds(d)})
			}
			family(b, "polygen_source_link_latency_seconds", "gauge", "Observed per-source link latency EWMA.", link)
		}
	}

	if s.Faults != nil {
		var errs, retries, hedges []sample
		all := s.Faults.AllFaults()
		for db, fc := range all {
			l := labels("source", db)
			errs = append(errs, sample{labels: l, value: fmt.Sprintf("%d", fc.Errors)})
			retries = append(retries, sample{labels: l, value: fmt.Sprintf("%d", fc.Retries)})
			hedges = append(hedges, sample{labels: l, value: fmt.Sprintf("%d", fc.Hedges)})
		}
		family(b, "polygen_source_errors_total", "counter", "Failed replica calls per source.", errs)
		family(b, "polygen_source_retries_total", "counter", "Retried (or failed-over) calls per source.", retries)
		family(b, "polygen_source_hedges_total", "counter", "Hedged requests launched per source.", hedges)
	}

	if s.Stores != nil {
		var gen, appends, appended, syncs, compactions, logBytes, truncated, broken []sample
		s.Stores(func(name string, st store.Stats) {
			l := labels("store", name)
			gen = append(gen, sample{labels: l, value: fmt.Sprintf("%d", st.Generation)})
			appends = append(appends, sample{labels: l, value: fmt.Sprintf("%d", st.Appends)})
			appended = append(appended, sample{labels: l, value: fmt.Sprintf("%d", st.AppendedBytes)})
			syncs = append(syncs, sample{labels: l, value: fmt.Sprintf("%d", st.Syncs)})
			compactions = append(compactions, sample{labels: l, value: fmt.Sprintf("%d", st.Compactions)})
			logBytes = append(logBytes, sample{labels: l, value: fmt.Sprintf("%d", st.LogBytes)})
			truncated = append(truncated, sample{labels: l, value: fmt.Sprintf("%d", st.TruncatedBytes)})
			broken = append(broken, sample{labels: l, value: boolVal(st.Broken)})
		})
		family(b, "polygen_store_generation", "gauge", "Current snapshot/log generation of the durable store.", gen)
		family(b, "polygen_store_appends_total", "counter", "Records appended to the write-ahead log this process.", appends)
		family(b, "polygen_store_appended_bytes_total", "counter", "Bytes appended to the write-ahead log this process.", appended)
		family(b, "polygen_store_syncs_total", "counter", "fsync calls issued against the write-ahead log.", syncs)
		family(b, "polygen_store_compactions_total", "counter", "Snapshot rotations (log compactions) performed.", compactions)
		family(b, "polygen_store_log_bytes", "gauge", "Current clean size of the write-ahead log.", logBytes)
		family(b, "polygen_store_truncated_bytes", "gauge", "Torn or corrupt log bytes discarded at recovery.", truncated)
		family(b, "polygen_store_broken", "gauge", "Whether a log failure has latched the store read-only.", broken)
	}

	if m := s.Memory; m != nil && m.Budget > 0 {
		gauge(b, "polygen_mem_budget_bytes", "Per-operator cap on blocking hash state; a query past it fails.", num(m.Budget))
		counter(b, "polygen_mem_refused_total", "Operator builds refused for passing the memory budget.", num(m.Refused.Load()))
	}
}
