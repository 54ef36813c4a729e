package main

// Per-layer metrics: what the traced half of a run, the counters at the
// layer boundaries and the staged pass say about each layer. README.md lists
// every metric with how it is taken and which end-to-end metric it should
// move.
//
// Self time follows one rule. Inside an operation's client span, every
// instant belongs to the deepest layer with a call in progress: the lqpd-side
// LQP, else the back wire hop (a leg call with no lqpd call under it), else
// the federation layer (a source call with no leg call under it), else the
// mediator and the PQP above it; what is left of the client span around the
// mediator call is the front wire hop. The mediator-and-PQP share cannot be
// split from outside, so the staged pass prices translation and the
// mediator's bookkeeping and the rest is the PQP's operators and tagging.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// counters are the cumulative counts the benchmark reads at layer boundaries.
type counters struct {
	frontBytes, backBytes, backConns int64
	planHits, planMisses             int64
	hedges, retries                  int64
	fileWrites, fileBytes, fileSyncs int64
	compactions                      int64
}

func (t *topology) counters() counters {
	plans := t.pqp.Plans.Stats()
	c := counters{
		frontBytes: t.frontProbe.bytes.Load(),
		backBytes:  t.backProbe.bytes.Load(),
		backConns:  t.backProbe.conns.Load(),
		planHits:   int64(plans.Hits),
		planMisses: int64(plans.Misses),
	}
	for _, f := range t.faults.AllFaults() {
		c.hedges += f.Hedges
		c.retries += f.Retries
	}
	for _, ep := range t.endpoints {
		if ep.store != nil {
			c.compactions += ep.store.Stats().Compactions
		}
		if ep.probe != nil {
			c.fileWrites += ep.probe.writes.Load()
			c.fileBytes += ep.probe.writtenBytes.Load()
			c.fileSyncs += ep.probe.syncs.Load()
		}
	}
	return c
}

func (c counters) combine(o counters, sign int64) counters {
	return counters{
		frontBytes: c.frontBytes + sign*o.frontBytes, backBytes: c.backBytes + sign*o.backBytes, backConns: c.backConns + sign*o.backConns,
		planHits: c.planHits + sign*o.planHits, planMisses: c.planMisses + sign*o.planMisses,
		hedges: c.hedges + sign*o.hedges, retries: c.retries + sign*o.retries,
		fileWrites: c.fileWrites + sign*o.fileWrites, fileBytes: c.fileBytes + sign*o.fileBytes, fileSyncs: c.fileSyncs + sign*o.fileSyncs,
		compactions: c.compactions + sign*o.compactions,
	}
}

func (c counters) plus(o counters) counters  { return c.combine(o, 1) }
func (c counters) minus(o counters) counters { return c.combine(o, -1) }

// opTrace is the spans of one operation.
type opTrace struct {
	client, mediator, store *span
	calls                   map[string][]*span // "source", "leg", "lqp", "file" -> call spans
}

// groupSpans sorts the spans of a traced run into operations. Background
// fsyncs belong to none and are left out.
func groupSpans(spans []span) map[int64]*opTrace {
	ops := make(map[int64]*opTrace)
	for i := range spans {
		s := &spans[i]
		if s.Op == 0 {
			continue
		}
		o := ops[s.Op]
		if o == nil {
			o = &opTrace{calls: make(map[string][]*span)}
			ops[s.Op] = o
		}
		switch layer, _, _ := strings.Cut(s.Name, "."); layer {
		case "client":
			o.client = s
		case "mediator":
			o.mediator = s
		case "store":
			o.store = s
		default:
			o.calls[layer] = append(o.calls[layer], s)
		}
	}
	return ops
}

// covered returns the merged intervals of the given call spans inside [lo, hi).
func covered(spans []*span, lo, hi int64) []interval {
	ivs := make([]interval, len(spans))
	for i, s := range spans {
		ivs[i] = interval{s.Start, s.End}
	}
	return clip(merged(ivs), lo, hi)
}

func union(a, b []interval) []interval {
	return merged(append(append([]interval(nil), a...), b...))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// per and ratio divide, reading a quotient over nothing as zero: a workload
// that bypasses a layer reports zero for it.
func per(total float64, n int) float64 { return ratio(total, float64(n)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// queryTotals sums the traced query operations.
type queryTotals struct {
	n                                     int
	client, mediator                      int64 // span time
	backSelf, fedSelf, wait, above        int64 // the mediator span, split by deepest layer with a call in progress
	lqpBusy                               int64 // lqpd-side call time, summed
	rowsIn, rowsOut, rowsServed           int64
	legs, pushed, shardedOpens, prunedOps int
	legTimes                              []time.Duration
	slowestLeg                            int64
}

// add accounts one query operation. shardsOf maps a source to its shard count.
func (q *queryTotals) add(o *opTrace, shardsOf map[string]int) {
	q.n++
	q.client += o.client.End - o.client.Start
	m := o.mediator
	if m == nil {
		return
	}
	q.mediator += m.End - m.Start
	q.rowsOut += m.N
	S := covered(o.calls["source"], m.Start, m.End)
	L := covered(o.calls["leg"], m.Start, m.End)
	Q := covered(o.calls["lqp"], m.Start, m.End)
	q.backSelf += length(minus(L, Q))
	q.fedSelf += length(minus(S, union(L, Q)))
	q.wait += length(S)
	q.above += length(minus([]interval{{m.Start, m.End}}, union(S, union(L, Q))))

	// A leg is one opened stream on one endpoint, from its open to the end of
	// its last read.
	type leg struct{ start, end int64 }
	open := make(map[int64]*leg)
	touched := make(map[int64]map[int]bool) // source.open span -> shards its legs reached
	for _, s := range o.calls["leg"] {
		if s.Name != "leg.open" {
			continue
		}
		q.legs++
		open[s.ID] = &leg{s.Start, s.End}
		if touched[s.Parent] == nil {
			touched[s.Parent] = make(map[int]bool)
		}
		touched[s.Parent][shardOfLabel(s.Label)] = true
	}
	for _, s := range o.calls["leg"] {
		if l := open[s.Parent]; l != nil && s.End > l.end {
			l.end = s.End
		}
	}
	var slowest int64
	for _, l := range open {
		q.legTimes = append(q.legTimes, time.Duration(l.end-l.start))
		if l.end-l.start > slowest {
			slowest = l.end - l.start
		}
	}
	q.slowestLeg += slowest
	for _, s := range o.calls["source"] {
		switch {
		case s.Name == "source.next":
			q.rowsIn += s.N
		case shardsOf[s.Label] > 1:
			q.shardedOpens++
			if len(touched[s.ID]) < shardsOf[s.Label] {
				q.prunedOps++
			}
		}
	}
	for _, s := range o.calls["lqp"] {
		q.lqpBusy += s.End - s.Start
		switch {
		case s.Name == "lqp.next":
			q.rowsServed += s.N
		case s.N > 1: // an OpenPlan with pushed steps
			q.pushed++
		}
	}
}

// insertTotals sums the traced insert operations.
type insertTotals struct {
	n             int
	client, store int64
	// early counts inserts acknowledged with no fsync of their store's log
	// between the insert's last log write and its return.
	early int
	// stall is the longest insert that had a log rotation inside it.
	stall int64
}

func (in *insertTotals) add(o *opTrace, syncs map[string][]*span, rotations map[string][]int64) {
	in.n++
	in.client += o.client.End - o.client.Start
	st := o.store
	if st == nil {
		return
	}
	in.store += st.End - st.Start
	written := st.Start
	for _, f := range o.calls["file"] {
		if f.Name == "file.write" && f.End > written {
			written = f.End
		}
	}
	log := syncs[st.Label]
	at := sort.Search(len(log), func(i int) bool { return log[i].Start >= written })
	if at == len(log) || log[at].End > st.End {
		in.early++
	}
	for _, r := range rotations[st.Label] {
		if r >= st.Start && r <= st.End && st.End-st.Start > in.stall {
			in.stall = st.End - st.Start
		}
	}
}

// perLayer fills in every per-layer metric.
func perLayer(res *result, t *topology, plain, traced *measured, st *stagedResult) {
	shardsOf := make(map[string]int)
	rotations := make(map[string][]int64)
	for _, src := range t.spec.sources {
		shardsOf[src.db.Name()] = src.shards
	}
	for _, p := range traced.probes {
		p.mu.Lock()
		rotations[p.label] = append(rotations[p.label], p.compactions...)
		p.mu.Unlock()
	}
	syncs := make(map[string][]*span)
	var syncTimes []time.Duration
	for i := range res.spans {
		if s := &res.spans[i]; s.Name == "file.sync" {
			syncs[s.Label] = append(syncs[s.Label], s)
			syncTimes = append(syncTimes, time.Duration(s.End-s.Start))
		}
	}
	for _, log := range syncs {
		sort.Slice(log, func(i, j int) bool { return log[i].Start < log[j].Start })
	}

	var q queryTotals
	var in insertTotals
	for _, o := range groupSpans(res.spans) {
		switch {
		case o.client == nil:
		case o.client.Name == "client.insert":
			in.add(o, syncs, rotations)
		default:
			q.add(o, shardsOf)
		}
	}
	if in.early > 0 {
		res.check(fmt.Errorf("%d of %d traced inserts were acknowledged before an fsync covered their log record", in.early, in.n))
	}

	d := traced.delta
	res.set("client.query_ms_per_op", per(ms(q.client), q.n), "ms")
	res.set("client.insert_ms_per_op", per(ms(in.client), in.n), "ms")
	res.set("wire.front.self_ms_per_op", per(ms(q.client-q.mediator), q.n), "ms")
	res.set("wire.front.bytes_per_op", per(float64(d.frontBytes), q.n), "B")
	res.set("wire.back.self_ms_per_op", per(ms(q.backSelf), q.n), "ms")
	res.set("wire.back.bytes_per_op", per(float64(d.backBytes), q.n+in.n), "B")
	res.set("wire.back.conns_per_op", per(float64(d.backConns), q.n+in.n), "count")
	res.set("mediator.query_ms_per_op", per(ms(q.mediator), q.n), "ms")
	res.set("pqp.source_wait_ms_per_op", per(ms(q.wait), q.n), "ms")
	res.set("pqp.rows_in_per_op", per(float64(q.rowsIn), q.n), "rows")
	res.set("pqp.rows_out_per_op", per(float64(q.rowsOut), q.n), "rows")
	res.set("federation.legs_per_op", per(float64(q.legs), q.n), "count")
	res.set("federation.pruned_frac", per(float64(q.prunedOps), q.shardedOpens), "ratio")
	res.set("federation.leg_ms_p50", p50ms(q.legTimes), "ms")
	res.set("federation.slowest_leg_ms_per_op", per(ms(q.slowestLeg), q.n), "ms")
	res.set("federation.self_ms_per_op", per(ms(q.fedSelf), q.n), "ms")
	res.set("federation.hedges_per_op", per(float64(d.hedges), q.n), "count")
	res.set("federation.retries_per_op", per(float64(d.retries), q.n), "count")
	res.set("lqp.serve_ms_per_leg", per(ms(q.lqpBusy), q.legs), "ms")
	res.set("lqp.rows_served_per_op", per(float64(q.rowsServed), q.n), "rows")
	res.set("lqp.pushed_plans_per_op", per(float64(q.pushed), q.n), "count")
	res.set("translate.plan_cache_hit_ratio", per(float64(d.planHits), int(d.planHits+d.planMisses)), "ratio")

	// The staged pass prices what cannot be seen from outside.
	res.set("translate.parse_us_per_op", st.parseUs, "us")
	res.set("translate.analyze_us_per_op", st.analyzeUs, "us")
	res.set("translate.interpret_us_per_op", st.interpretUs, "us")
	res.set("translate.optimize_us_per_op", st.optimizeUs, "us")
	res.set("pqp.execute_ms_per_op", st.executeMs, "ms")
	res.set("mediator.self_ms_per_op", st.mediatorSelfMs, "ms")
	res.set("wire.codec.encode_ns_per_row", st.encodeNsPerRow, "ns")
	res.set("wire.codec.decode_ns_per_row", st.decodeNsPerRow, "ns")
	res.set("catalog.insert_ms_per_op", st.catalogInsertMs, "ms")

	// Above the sources, the mediator span holds translation, the mediator's
	// bookkeeping and the PQP's operators. The staged pass prices the first
	// two; the rest is the operators', and what of it the staged execution
	// does not reproduce — contention, scheduling and collection in the
	// concurrent run — is the part of the whole the parts do not explain.
	var queries, known int
	var userBytes int64
	for _, p := range traced.phases {
		queries, known, userBytes = queries+p.queries, known+p.knownQueries, userBytes+p.userBytes
	}
	missRatio := 1 - per(float64(known), queries)
	translateMs := (st.parseUs + missRatio*(st.analyzeUs+st.interpretUs+st.optimizeUs)) / 1e3
	coreSelf := math.Max(0, per(ms(q.above), q.n)-translateMs-st.mediatorSelfMs)
	res.set("pqp.core_self_ms_per_op", coreSelf, "ms")
	res.set("trace.unattributed_frac", ratio(math.Max(0, coreSelf-st.coreSelfMs)*float64(q.n), ms(q.client+in.client)), "ratio")

	// The store, seen through its file handle and around Insert.
	res.set("store.insert_ms_per_op", per(ms(in.store), in.n), "ms")
	res.set("store.syncs_per_insert", per(float64(d.fileSyncs), in.n), "count")
	res.set("store.write_calls_per_insert", per(float64(d.fileWrites), in.n), "count")
	res.set("store.sync_ms_p50", p50ms(syncTimes), "ms")
	res.set("store.written_bytes_per_user_byte", per(float64(d.fileBytes), int(userBytes)), "ratio")
	res.set("store.compactions", float64(d.compactions), "count")
	res.set("store.compaction_stall_ms_max", ms(in.stall), "ms")

	// The untraced half: the inserts' latency, the rate the traced half is
	// compared with, and the Go runtime's counters.
	ps, ts := summarize(regroup(plain.cut, segments)), summarize(regroup(traced.cut, segments))
	res.set("insert_p50_ms", ps.p50ms[1], "ms")
	res.set("insert_p99_ms", ps.p99ms[1], "ms")
	res.set("trace.overhead_frac", ratio(ps.qps-ts.qps, ps.qps), "ratio")
	var alloc, mallocs, pause, peak uint64
	var cycles uint32
	for _, p := range plain.phases {
		first, last := p.mem[0], p.mem[len(p.mem)-1]
		alloc += last.TotalAlloc - first.TotalAlloc
		mallocs += last.Mallocs - first.Mallocs
		pause += last.PauseTotalNs - first.PauseTotalNs
		cycles += last.NumGC - first.NumGC
		for _, m := range p.mem {
			if m.HeapInuse > peak {
				peak = m.HeapInuse
			}
		}
	}
	res.set("proc.alloc_mb_per_op", per(float64(alloc)/1e6, int(ps.operations)), "MB")
	res.set("proc.allocs_per_op", per(float64(mallocs), int(ps.operations)), "count")
	res.set("proc.gc_cycles", float64(cycles), "count")
	res.set("proc.gc_pause_ms_total", float64(pause)/1e6, "ms")
	res.set("proc.peak_heap_mb", float64(peak)/1e6, "MB")

	res.counts["traced_queries"] = q.n
	res.counts["traced_inserts"] = in.n
	res.counts["traced_spans"] = len(res.spans)
	res.counts["untraced_operations"] = int(ps.operations)
}

// shardOfLabel reads the shard out of an endpoint label
// ("<source>-<shard>-<replica>").
func shardOfLabel(label string) int {
	parts := strings.Split(label, "-")
	if len(parts) < 3 {
		return 0
	}
	shard, _ := strconv.Atoi(parts[len(parts)-2])
	return shard
}

// p50ms is the median of times, in milliseconds; it sorts its argument.
func p50ms(times []time.Duration) float64 {
	if len(times) == 0 {
		return 0
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return ms(int64(percentile(times, 0.5)))
}
