package main

// The closed-loop driver. Every client issues its next operation when the
// previous one has answered — the paper's users are analysts and applications
// that wait for their answer — checks the answer, and notes how long the
// system took. A run lasts a fixed time (the driver's --seconds) or, in
// tests, a fixed number of operations per client.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/rel"
)

// segments is how many equal stretches a timed phase is cut into. The
// reported rate, percentiles and CPU cost are medians over the stretches, so
// that one garbage collection or one noisy neighbour does not own a number.
const segments = 10

// limit ends a phase: after d, or after ops operations per client when ops
// is positive.
type limit struct {
	d   time.Duration
	ops int
}

// sample is one completed operation.
type sample struct {
	end    time.Duration // since the phase began
	took   time.Duration
	insert bool
}

// phase is what one driven stretch of a run measured.
type phase struct {
	elapsed   time.Duration
	samples   []sample // every client's, by end time
	attempted int
	failed    int
	firstErr  error
	// queries and knownQueries count the query operations and those with a
	// repeated text: the plan-cache hit ratio the schedule prescribes.
	queries, knownQueries int
	// userBytes is the size of the acknowledged inserts' rows as plain
	// columnar frames, one frame per insert.
	userBytes int64
	// at, cpu and ops are the clock, the cumulative process CPU time and the
	// completed operations at every segment boundary, start included.
	at  []time.Duration
	cpu []time.Duration
	ops []int64
	// mem is the Go runtime's view at the same boundaries.
	mem []runtime.MemStats
}

// client is one closed-loop client's private state.
type client struct {
	next   func() op
	sum    *summer
	result phase
	acked  [][]rel.Tuple // this phase's acknowledged rows, per durable endpoint
}

// driver runs phases over one topology. Client streams continue from phase to
// phase, so no first-seen text is ever drawn twice.
type driver struct {
	t       *topology
	clients []*client
	// Totals over every phase, warm-up included: the query operations and
	// those with a repeated text, and the rows of every acknowledged insert
	// per durable endpoint.
	queries, knownQueries int
	acked                 [][]rel.Tuple
}

func newDriver(w *workload, t *topology) *driver {
	d := &driver{t: t, acked: make([][]rel.Tuple, len(t.writers))}
	for c := range t.clients {
		d.clients = append(d.clients, &client{next: w.stream(c, len(t.clients)), sum: newSummer(t.clients[c].Reg)})
	}
	return d
}

// run drives every client until lim and gathers what they saw.
func (d *driver) run(lim limit) *phase {
	out := &phase{}
	var done atomic.Int64
	start := time.Now()

	// The sampler reads the process's CPU time and heap at every segment
	// boundary. In an operation-bounded phase only start and end are read.
	stop := make(chan struct{})
	var sampling sync.WaitGroup
	read := func() {
		out.at = append(out.at, time.Since(start))
		out.cpu = append(out.cpu, processCPU())
		out.ops = append(out.ops, done.Load())
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		out.mem = append(out.mem, m)
	}
	read()
	if lim.ops <= 0 {
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			tick := time.NewTicker(lim.d / segments)
			defer tick.Stop()
			for i := 1; i < segments; i++ {
				select {
				case <-tick.C:
					read()
				case <-stop:
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d.clients[c].drive(d.t, c, lim, start, &done)
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	close(stop)
	sampling.Wait()
	read()

	for _, cl := range d.clients {
		r := &cl.result
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.queries += r.queries
		out.knownQueries += r.knownQueries
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		for s, rows := range cl.acked {
			d.acked[s] = append(d.acked[s], rows...)
			// Sized here, off the clients' timed loop.
			for at := 0; at < len(rows); at += insertBatch {
				out.userBytes += int64(len(rel.AppendFrame(nil, rel.FromTuples(factSchema, rows[at:at+insertBatch]))))
			}
		}
		cl.result, cl.acked = phase{}, nil
	}
	d.queries += out.queries
	d.knownQueries += out.knownQueries
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].end < out.samples[j].end })
	return out
}

// drive is one client's loop.
func (cl *client) drive(t *topology, c int, lim limit, start time.Time, done *atomic.Int64) {
	r := &cl.result
	cl.acked = make([][]rel.Tuple, len(t.writers))
	var slot *atomic.Pointer[spanRef]
	if t.rec != nil {
		slot = t.rec.sessionSlot(t.sessions[c])
	}
	for i := 0; ; i++ {
		if lim.ops > 0 && i >= lim.ops || lim.ops <= 0 && time.Since(start) >= lim.d {
			return
		}
		o := cl.next()
		r.attempted++
		var sp *span
		if t.rec != nil && t.rec.on.Load() {
			if o.insert {
				sp = t.rec.root("client.insert")
				t.rec.inserts.Store(o.rows[0][0].Str(), sp.ref())
			} else {
				sp = t.rec.root("client.query")
				ref := sp.ref()
				slot.Store(&ref)
			}
		}
		began := time.Now()
		err := cl.do(t, c, o)
		took := time.Since(began)
		if sp != nil {
			t.rec.finish(sp, 0)
			if o.insert {
				t.rec.inserts.Delete(o.rows[0][0].Str())
			} else {
				slot.Store(nil)
			}
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			continue
		}
		// A failed operation has no latency: it misses every limit.
		r.samples = append(r.samples, sample{end: time.Since(start), took: took, insert: o.insert})
		done.Add(1)
		if o.insert {
			cl.acked[o.shard] = append(cl.acked[o.shard], o.rows...)
		} else {
			r.queries++
			if o.known {
				r.knownQueries++
			}
		}
	}
}

// do performs one operation and checks its answer.
func (cl *client) do(t *topology, c int, o op) error {
	if o.insert {
		if err := t.writers[o.shard].Insert("FACT", o.rows); err != nil {
			return fmt.Errorf("insert: %w", err)
		}
		return nil
	}
	ans, err := t.clients[c].Query(t.sessions[c], o.text, true)
	if err != nil {
		return fmt.Errorf("%s: %w", o.text, err)
	}
	if ans.CacheHit != o.known {
		return fmt.Errorf("%s: plan cache hit is %v, the schedule says %v", o.text, ans.CacheHit, o.known)
	}
	got := cl.sum.relation(ans.Relation)
	switch {
	case o.atLeast && got.rows >= o.want.rows:
	case !o.atLeast && got == o.want:
	default:
		return fmt.Errorf("%s: wrong answer: %d rows with checksum %x, want %d rows with checksum %x", o.text, got.rows, got.sum, o.want.rows, o.want.sum)
	}
	return nil
}

var factSchema = rel.SchemaOf("FK", "DK", "MK", "CAT", "VAL", "PAD")

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stretch is one cut of a run: a segment of a timed phase, or a whole
// operation-bounded phase. Every stretch yields one value of each end-to-end
// metric, and the run reports the median over its stretches.
type stretch struct {
	elapsed time.Duration
	cpu     time.Duration
	ops     int64
	took    [2][]time.Duration // latencies of queries and of inserts, ascending
}

// stretches cuts the phase at its segment boundaries.
func (p *phase) stretches() []stretch {
	out := make([]stretch, len(p.at)-1)
	for i := range out {
		out[i] = stretch{elapsed: p.at[i+1] - p.at[i], cpu: p.cpu[i+1] - p.cpu[i], ops: p.ops[i+1] - p.ops[i]}
	}
	i := 0
	for _, s := range p.samples {
		for i < len(out)-1 && s.end >= p.at[i+1] {
			i++
		}
		kind := 0
		if s.insert {
			kind = 1
		}
		out[i].took[kind] = append(out[i].took[kind], s.took)
	}
	for i := range out {
		for _, took := range out[i].took {
			sort.Slice(took, func(a, b int) bool { return took[a] < took[b] })
		}
	}
	return out
}

// regroup joins consecutive stretches until at most n are left, so that a run
// of many short epochs reads its percentiles off as many samples as a timed
// run's segments hold.
func regroup(cut []stretch, n int) []stretch {
	if len(cut) <= n {
		return cut
	}
	out := make([]stretch, n)
	for i, s := range cut {
		g := &out[i*n/len(cut)]
		g.elapsed, g.cpu, g.ops = g.elapsed+s.elapsed, g.cpu+s.cpu, g.ops+s.ops
		for kind, took := range s.took {
			g.took[kind] = append(g.took[kind], took...)
		}
	}
	for i := range out {
		for _, took := range out[i].took {
			sort.Slice(took, func(a, b int) bool { return took[a] < took[b] })
		}
	}
	return out
}

// percentile reads the p-quantile (nearest rank) off ascending durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of values; it reorders its argument.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	mid := len(values) / 2
	if len(values)%2 == 1 {
		return values[mid]
	}
	return (values[mid-1] + values[mid]) / 2
}

// summary is the end-to-end view of a run's stretches.
type summary struct {
	qps, cpuMsPerOp float64
	// p50ms and p99ms are, for queries and for inserts, the median over the
	// stretches of each stretch's own percentile; samples counts all samples
	// of the kind and perP99 the fewest any one stretch read its p99 from.
	p50ms, p99ms    [2]float64
	samples, perP99 [2]int
	operations      int64
}

func summarize(cut []stretch) summary {
	var out summary
	var rate, cost []float64
	var p50, p99 [2][]float64
	for _, s := range cut {
		out.operations += s.ops
		if s.ops > 0 && s.elapsed > 0 {
			rate = append(rate, float64(s.ops)/s.elapsed.Seconds())
			cost = append(cost, float64(s.cpu)/1e6/float64(s.ops))
		}
		for kind, took := range s.took {
			if len(took) == 0 {
				continue
			}
			out.samples[kind] += len(took)
			if out.perP99[kind] == 0 || len(took) < out.perP99[kind] {
				out.perP99[kind] = len(took)
			}
			p50[kind] = append(p50[kind], float64(percentile(took, 0.50))/1e6)
			p99[kind] = append(p99[kind], float64(percentile(took, 0.99))/1e6)
		}
	}
	out.qps, out.cpuMsPerOp = median(rate), median(cost)
	for kind := range p50 {
		out.p50ms[kind], out.p99ms[kind] = median(p50[kind]), median(p99[kind])
	}
	return out
}
