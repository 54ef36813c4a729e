package main

// One benchmark run: set up (generate, serve, verify against the oracle,
// warm), drive, check, tear down.
//
// The read-only workloads set up setupRepeats times, keep the last set-up and
// drive it for the run's length, cut into segments. ingest-query instead runs
// in epochs: every epoch sets up a fresh federation, drives a fixed number of
// operations, then closes the stores, reopens them and checks that the seed
// plus every acknowledged row is back. Epochs keep the relation the inserts
// scan, and so the cost of the reopen, the same on every commit instead of
// letting both grow with how fast the commit happens to be.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/rel"
	"repro/internal/store"
)

const (
	// setupRepeats is the fewest set-ups a run makes; setup_s is their median.
	setupRepeats = 3
	// warmupOps is how many operations of its stream every client runs before
	// timing, after every known text has been sent once: enough to dial the
	// pooled connections and seed the federation's latency estimators.
	warmupOps = 8
	// ramp is how long a read-only workload is driven, unmeasured, before its
	// timed run: throughput keeps climbing for the first seconds of a fresh
	// process (heap size, connection reuse and the hedging estimators settle),
	// and a run that measured the climb would mostly measure its own length.
	ramp = 3 * time.Second
	// epochOps is how many operations every client runs in one epoch of
	// ingest-query: 50 rounds of four inserts and a query.
	epochOps = 250
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is what a run is asked to do.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch space for data directories
	sizes    sizes
	clients  int
	// ops, when positive, bounds every phase by operations per client
	// instead of time (tests).
	ops int
}

// result is what a run found.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	correct   bool
	problems  []string
	counts    map[string]int // sample counts behind the percentiles
	spans     []span
}

func (r *result) check(err error) {
	if err != nil {
		r.correct = false
		r.problems = append(r.problems, err.Error())
	}
}

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{value, unit}
}

// clientCount is the closed-loop client count: one per core, at most four,
// so that the generator never outnumbers the cores it shares with the system.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// session is one set-up: a generated workload, served, verified and warm.
type session struct {
	w *workload
	t *topology
	d *driver
}

// setUp generates the workload, serves it, verifies every known text against
// the oracle through the full topology, and warms up.
func setUp(cfg config, rec *recorder) (*session, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "data-")
	if err != nil {
		return nil, err
	}
	t, err := buildTopology(w.spec, dir, cfg.clients, rec)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*session, error) {
		t.close()
		return nil, err
	}
	o := newOracle(w.spec)
	sum := newSummer(w.spec.registry)
	answers := make(map[string]*core.Relation, len(w.texts))
	for _, text := range w.texts {
		want, err := o.answer(text)
		if err != nil {
			return fail(fmt.Errorf("oracle: %s: %w", text, err))
		}
		got, err := t.clients[0].Query(t.sessions[0], text, true)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", text, err))
		}
		if err := sameAnswer(got.Relation, want); err != nil {
			return fail(fmt.Errorf("%s: %w", text, err))
		}
		answers[text], w.want[text] = want, sum.relation(want)
	}
	if w.learn != nil {
		if err := w.learn(o, answers); err != nil {
			return fail(err)
		}
	}
	d := newDriver(w, t)
	if p := d.run(limit{ops: warmupOps}); p.failed > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d operations failed, first: %w", p.failed, p.attempted, p.firstErr))
	}
	return &session{w, t, d}, nil
}

// finish checks what only the end of a session can show — the plan cache's
// own count of hits and misses against the schedule, and the durability of
// every acknowledged insert — and tears the session down.
func (s *session) finish(res *result) durable {
	res.check(planCacheCheck(s.w, s.t, s.d))
	s.t.close()
	var out durable
	if s.t.spec.writable {
		var err error
		out, err = durability(s.w, s.t, s.d)
		res.check(err)
	}
	for _, err := range s.t.closeErrors {
		res.check(err)
	}
	res.check(os.RemoveAll(s.t.dir))
	return out
}

// measured gathers the driven phases of one kind (untraced or traced).
type measured struct {
	phases []*phase
	cut    []stretch
	delta  counters      // what the topologies' counters moved by
	probes []*storeProbe // the file probes of the stores that were driven
}

func (m *measured) add(p *phase, t *topology, before counters) {
	m.phases = append(m.phases, p)
	m.cut = append(m.cut, p.stretches()...)
	m.delta = m.delta.plus(t.counters().minus(before))
	for _, ep := range t.endpoints {
		if ep.probe != nil {
			m.probes = append(m.probes, ep.probe)
		}
	}
}

func (m *measured) elapsed() (d time.Duration) {
	for _, p := range m.phases {
		d += p.elapsed
	}
	return d
}

// run performs one benchmark run.
func run(cfg config) (*result, error) {
	res := &result{metrics: make(map[string]metric), counts: make(map[string]int), correct: true}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var setups []float64
	open := func() (*session, error) {
		began := time.Now()
		s, err := setUp(cfg, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(began).Seconds())
		return s, nil
	}
	// drive runs one phase of s, traced or not, into m.
	drive := func(s *session, lim limit, traced bool, m *measured) {
		before := s.t.counters()
		if traced {
			rec.on.Store(true)
		}
		p := s.d.run(lim)
		if traced {
			rec.on.Store(false)
		}
		m.add(p, s.t, before)
	}

	// A traced run alternates untraced and traced slices (or epochs), so that
	// the process counters, and the rate the traced slices are compared with,
	// come from a process of the same age.
	total := time.Duration(cfg.seconds) * time.Second
	var plain, traced measured
	kinds := []*measured{&plain}
	if cfg.trace {
		kinds = []*measured{&plain, &traced, &plain, &traced}
	}
	if cfg.ops > 0 {
		kinds = kinds[:min(2, len(kinds))] // tests: one slice or epoch per kind
	}
	var last *session
	var disk durable
	if !runsInEpochs(cfg.workload) {
		for i := 0; i < setupRepeats; i++ {
			if last != nil {
				last.t.close()
			}
			var err error
			if last, err = open(); err != nil {
				return nil, err
			}
		}
		if cfg.ops <= 0 {
			last.d.run(limit{d: ramp})
		}
		runtime.GC()
		for _, m := range kinds {
			drive(last, limit{d: total / time.Duration(len(kinds)), ops: cfg.ops}, m == &traced, m)
		}
		last.finish(res)
	} else {
		// Epochs, in turn for every kind, until the run's length is driven
		// and enough set-ups have been timed.
		lim := limit{ops: epochOps}
		if cfg.ops > 0 {
			lim.ops = cfg.ops
		}
		for done := false; !done; {
			for _, m := range kinds {
				s, err := open()
				if err != nil {
					return nil, err
				}
				runtime.GC()
				drive(s, lim, m == &traced, m)
				disk = disk.plus(s.finish(res))
				last = s
			}
			done = cfg.ops > 0 || plain.elapsed()+traced.elapsed() >= total && len(setups) >= setupRepeats
		}
	}

	for _, p := range append(append([]*phase(nil), plain.phases...), traced.phases...) {
		res.attempted += p.attempted
		res.failed += p.failed
		if p.firstErr != nil && len(res.problems) == 0 {
			res.problems = append(res.problems, p.firstErr.Error())
		}
	}
	if res.failed > 0 {
		res.correct = false
	}

	if !cfg.trace {
		endToEnd(res, summarize(regroup(plain.cut, segments)))
		res.set("setup_s", median(setups), "s")
		return res, nil
	}
	res.spans = rec.take()
	stagedFor := stagedOps
	if cfg.ops > 0 {
		stagedFor = cfg.ops
	}
	st, err := staged(last.w, cfg.clients, stagedFor)
	if err != nil {
		return nil, fmt.Errorf("staged pass: %w", err)
	}
	perLayer(res, last.t, &plain, &traced, st)
	res.set("store.replay_mb_s", ratio(float64(disk.replayBytes)/1e6, disk.replayTime.Seconds()), "MB/s")
	res.set("stored_bytes_per_user_byte", ratio(float64(disk.storedBytes), float64(disk.userBytes)), "ratio")
	return res, nil
}

// endToEnd reports what a user of the system sees, from the untraced run.
func endToEnd(res *result, s summary) {
	res.set("qps", s.qps, "op/s")
	res.set("cpu_ms_per_op", s.cpuMsPerOp, "ms")
	res.set("query_p50_ms", s.p50ms[0], "ms")
	res.set("query_p99_ms", s.p99ms[0], "ms")
	res.counts["operations"] = int(s.operations)
	res.counts["query_samples"] = s.samples[0]
	res.counts["query_samples_per_p99"] = s.perP99[0]
	res.counts["insert_samples"] = s.samples[1]
}

// planCacheCheck compares the plan cache's own counters with the schedule:
// every repeated text a hit, every first-seen text a miss — the known texts
// were first seen by the oracle check — and nothing else.
func planCacheCheck(w *workload, t *topology, d *driver) error {
	st := t.pqp.Plans.Stats()
	wantHits, wantMisses := uint64(d.knownQueries), uint64(len(w.texts)+d.queries-d.knownQueries)
	if st.Hits != wantHits || st.Misses != wantMisses {
		return fmt.Errorf("plan cache counted %d hits and %d misses, the schedule prescribes %d and %d", st.Hits, st.Misses, wantHits, wantMisses)
	}
	return nil
}

// durable is what the reopened stores of a session showed.
type durable struct {
	replayBytes int64         // snapshot and log bytes the reopens read
	replayTime  time.Duration // wall time of the reopens, all stores at once
	storedBytes int64         // size of the data directories at the end
	userBytes   int64         // the rows they hold, as plain columnar frames
}

func (a durable) plus(b durable) durable {
	return durable{a.replayBytes + b.replayBytes, a.replayTime + b.replayTime, a.storedBytes + b.storedBytes, a.userBytes + b.userBytes}
}

// durability reopens the data directory of every closed store and requires
// the recovered FACT relation to be the seed slice plus every acknowledged
// row, cell for cell.
func durability(w *workload, t *topology, d *driver) (durable, error) {
	var stores []*endpoint
	for _, ep := range t.endpoints {
		if ep.store != nil {
			stores = append(stores, ep)
		}
	}
	out := make([]durable, len(stores))
	errs := make([]error, len(stores))
	began := time.Now()
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = reopen(stores[i], w.spec.sources[0], d.acked[i])
		}(i)
	}
	wg.Wait()
	total := durable{replayTime: time.Since(began)}
	for i := range stores {
		if errs[i] != nil {
			return durable{}, fmt.Errorf("%s after reopen: %w", stores[i].store.Dir(), errs[i])
		}
		total = total.plus(out[i])
	}
	return total, nil
}

// reopen recovers one store from its directory and compares FACT with the
// source's slice for the endpoint's shard plus the acknowledged rows.
func reopen(ep *endpoint, src sourceSpec, acked []rel.Tuple) (durable, error) {
	var out durable
	dir := ep.store.Dir()
	var err error
	if out.storedBytes, err = dirBytes(dir); err != nil {
		return out, err
	}
	out.replayBytes = out.storedBytes
	st, err := store.Open(dir, ep.source, nil, store.Options{})
	if err != nil {
		return out, err
	}
	_, got, err := st.DB().View("FACT")
	if err == nil {
		err = st.Close()
	}
	if err != nil {
		return out, err
	}
	seed, err := federation.Slice(src.db, ep.shard, src.shards)
	if err != nil {
		return out, err
	}
	_, want, _ := seed.View("FACT")
	want = append(want, acked...)
	out.userBytes = int64(len(rel.AppendFrame(nil, rel.FromTuples(factSchema, want))))
	return out, sameRows(got, want)
}

// sameRows compares two plain relations as sets of rows.
func sameRows(got, want []rel.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	keys := func(rows []rel.Tuple) []string {
		out := make([]string, len(rows))
		for i, t := range rows {
			out[i] = t.Key()
		}
		sort.Strings(out)
		return out
	}
	g, w := keys(got), keys(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q, want %q", g[i], w[i])
		}
	}
	return nil
}
