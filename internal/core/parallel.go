package core

import (
	"io"

	"repro/internal/exec"
	"repro/internal/identity"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// This file implements morsel-driven intra-operator parallelism for the
// build sides of the streaming hash Join and Difference (stream.go): the
// classic shared-nothing partitioned-hashing design (Wisconsin parallel hash
// joins) mapped onto the hash-native kernels. A partitioned build hashes
// every build tuple once, in fixed-size morsels pulled by pool workers, then
// routes each hash to one of P contiguous hash ranges (rel.PartitionOf), and
// worker w builds partition w's buckets outright — every tuple that could
// match or collide with another shares its partition, so builds need no
// locks. Within a bucket, positions stay in build order, so probes see
// matches in the serial order. The join's probe then fans out through
// ParallelCursor, which re-sequences each batch's output to input order:
// the result is cell-for-cell identical to the serial path's, row order
// included, and deterministic across runs and worker counts.

// DefaultParallelThreshold is the minimum build-side cardinality at which
// Join and Difference build partitioned. Below it the fixed costs — hash
// array, per-partition scan, goroutine wakeups — outweigh the win; the
// paper's tiny worked example never crosses it. Chosen as roughly the size
// where partitioned runs break even at two workers in the B-PAR family.
const DefaultParallelThreshold = 8192

// Parallel configures morsel-driven intra-operator parallelism on an
// Algebra. One Pool is shared by every operator of every concurrent query
// on the algebra (one pool per PQP), so a mediator's sessions divide the
// machine instead of oversubscribing it.
type Parallel struct {
	// Pool supplies the workers; builds partition into Pool.Workers()
	// partitions, so a one-worker pool keeps every operator serial.
	Pool *exec.Pool
	// Threshold is the minimum build-side tuples for the parallel path;
	// <= 0 means DefaultParallelThreshold.
	Threshold int
}

// SetParallel installs (or, with nil, removes) the parallel execution
// configuration. Like the other Algebra knobs it is wiring-time state: set
// it before the algebra is shared across goroutines.
func (a *Algebra) SetParallel(p *Parallel) { a.par = p }

// ParallelConfig returns the installed configuration, nil when serial.
func (a *Algebra) ParallelConfig() *Parallel { return a.par }

// parParts decides whether a build over n tuples runs partitioned,
// returning the partition count (0 = stay serial).
func (a *Algebra) parParts(n int) int {
	if a == nil || a.par == nil {
		return 0
	}
	thr := a.par.Threshold
	if thr <= 0 {
		thr = DefaultParallelThreshold
	}
	if n < thr {
		return 0
	}
	parts := a.par.Pool.Workers()
	if parts < 2 {
		return 0 // one worker: partitioning would only add overhead
	}
	return parts
}

func (a *Algebra) parPool() *exec.Pool {
	if a.par == nil {
		return nil
	}
	return a.par.Pool
}

// morselTuples is the fixed morsel size of the data-parallel scan phases.
// Big enough to amortize the task hand-off, small enough that a hundred
// thousand tuples split into dozens of morsels for work stealing.
const morselTuples = 4096

// morselCount returns how many morselTuples-sized morsels cover n tuples.
func morselCount(n int) int {
	m := (n + morselTuples - 1) / morselTuples
	if m < 1 {
		m = 1
	}
	return m
}

// morselRange returns the [lo, hi) tuple range of morsel i.
func morselRange(n, i int) (int, int) {
	lo := i * morselTuples
	hi := lo + morselTuples
	if hi > n {
		hi = n
	}
	return lo, hi
}

// hashAll computes every tuple's DataHash64 in parallel morsels.
func hashAll(pool *exec.Pool, tuples []Tuple) []uint64 {
	n := len(tuples)
	hashes := make([]uint64, n)
	pool.Do(morselCount(n), func(m int) {
		lo, hi := morselRange(n, m)
		for i := lo; i < hi; i++ {
			hashes[i] = tuples[i].DataHash64()
		}
	})
	return hashes
}

// partitionPositions radix-scatters the positions [0, n) of a hash array
// into per-partition lists, each ascending — the scan order of every
// partition phase. Two parallel passes keep it O(n) total (not O(parts×n)
// with every worker filtering the whole array) and lock-free: morsel
// workers scatter into morsel-local buckets, then partition workers
// concatenate their own bucket across morsels in morsel order. route maps
// a hash to its partition (rel.PartitionOf for data hashes, idPartOf for
// canonical IDs — which also skips the zero "null" ID by routing it to -1).
func partitionPositions(pool *exec.Pool, parts int, hashes []uint64, route func(uint64) int) [][]int32 {
	n := len(hashes)
	m := morselCount(n)
	local := make([][][]int32, m)
	pool.Do(m, func(mi int) {
		lo, hi := morselRange(n, mi)
		buckets := make([][]int32, parts)
		for i := lo; i < hi; i++ {
			if w := route(hashes[i]); w >= 0 {
				buckets[w] = append(buckets[w], int32(i))
			}
		}
		local[mi] = buckets
	})
	out := make([][]int32, parts)
	pool.Do(parts, func(w int) {
		total := 0
		for mi := range local {
			total += len(local[mi][w])
		}
		list := make([]int32, 0, total)
		for mi := range local {
			list = append(list, local[mi][w]...)
		}
		out[w] = list
	})
	return out
}

// buildPartitionedDataIndex hashes tuples and builds a radix-partitioned
// bucket index over them in parallel — the streaming Difference's build.
func buildPartitionedDataIndex(pool *exec.Pool, parts int, tuples []Tuple) *rel.PartitionedBucketIndex {
	hashes := hashAll(pool, tuples)
	ix := rel.NewPartitionedBucketIndex(parts, len(tuples)/parts+1)
	pos := partitionPositions(pool, parts, hashes, ix.Partition)
	pool.Do(parts, func(w int) {
		for _, i := range pos[w] {
			ix.Add(hashes[i], int(i))
		}
	})
	return ix
}

// originUnionPar computes p(o) with a parallel morsel reduction.
func originUnionPar(pool *exec.Pool, p *Relation) sourceset.Set {
	n := len(p.Tuples)
	m := morselCount(n)
	partials := make([]sourceset.Set, m)
	pool.Do(m, func(mi int) {
		lo, hi := morselRange(n, mi)
		var s sourceset.Set
		for i := lo; i < hi; i++ {
			s = s.Union(p.Tuples[i].OriginUnion())
		}
		partials[mi] = s
	})
	var s sourceset.Set
	for _, part := range partials {
		s = s.Union(part)
	}
	return s
}

// joinIndex is what a hash-join probe needs from a build-side index; the
// serial CSR/map idIndex and the partitioned parIDIndex both satisfy it.
type joinIndex interface {
	lookup(id uint64) []int32
}

// idPartMix spreads the resolver's dense sequential canonical IDs across
// the 64-bit space (Fibonacci hashing) so rel.PartitionOf — which reads
// high bits — balances the ID partitions.
const idPartMix = 0x9E3779B97F4A7C15

func idPartOf(id uint64, parts int) int {
	return rel.PartitionOf(id*idPartMix, parts)
}

// parIDIndex is the partitioned build-side hash-join index: partition w
// holds only canonical IDs with idPartOf(id) == w, so the parallel build
// shares no state between workers. Within a bucket, positions stay in build
// order — the serial probe order.
type parIDIndex struct {
	shards []map[uint64][]int32
}

// buildParIDIndex computes the build side's canonical IDs in parallel
// morsels (CanonicalID is safe for concurrent use and interns one stable ID
// per canonical form) and builds the parts shards in parallel.
func buildParIDIndex(pool *exec.Pool, parts int, res identity.Resolver, tuples []Tuple, yi int) parIDIndex {
	n := len(tuples)
	ids := make([]uint64, n)
	pool.Do(morselCount(n), func(m int) {
		lo, hi := morselRange(n, m)
		for i := lo; i < hi; i++ {
			if tuples[i][yi].D.IsNull() {
				ids[i] = 0 // resolver IDs start at 1; 0 marks "skip"
				continue
			}
			ids[i] = res.CanonicalID(tuples[i][yi].D)
		}
	})
	pos := partitionPositions(pool, parts, ids, func(id uint64) int {
		if id == 0 {
			return -1 // null build key: indexed nowhere
		}
		return idPartOf(id, parts)
	})
	ix := parIDIndex{shards: make([]map[uint64][]int32, parts)}
	pool.Do(parts, func(w int) {
		shard := make(map[uint64][]int32, len(pos[w]))
		for _, pi := range pos[w] {
			id := ids[pi]
			shard[id] = append(shard[id], pi)
		}
		ix.shards[w] = shard
	})
	return ix
}

func (ix parIDIndex) lookup(id uint64) []int32 {
	return ix.shards[idPartOf(id, len(ix.shards))][id]
}

// ---------------------------------------------------------------------------
// ParallelCursor: the streaming engine's fan-out/re-sequence stage.

// parBatch is one processed output chunk handed from a worker to the
// consumer.
type parBatch struct {
	rows []Tuple
	err  error
}

// slotChunkDepth bounds how many output chunks one in-flight input batch
// may buffer ahead of the consumer. Together with the slot depth and fn's
// per-chunk cap it bounds the cursor's peak buffered rows — a high-fanout
// join cannot materialize a whole batch's expansion at once; its worker
// blocks on emit until the consumer catches up.
const slotChunkDepth = 2

// parallelCursor fans input batches out to pool workers through fn and
// re-sequences the results to input order: a dispatcher pulls batches,
// queues one result slot per batch (bounding the batches in flight), and
// hands the batch to a pool worker, which streams its output chunks into
// the slot; Next consumes slots in queue order, chunks in emit order, so
// output order is input order regardless of which worker finishes first.
type parallelCursor struct {
	header
	in     Cursor
	pool   *exec.Pool
	fn     func(batch []Tuple, emit func([]Tuple) bool) error
	slots  chan chan parBatch
	cur    chan parBatch // slot currently being consumed
	stop   chan struct{}
	done   chan struct{}
	err    error
	closed bool
}

// ParallelCursor wraps in so that fn runs on pool workers, up to depth
// input batches ahead of and concurrently with the consumer, with output
// re-sequenced to input order. fn processes one input batch and hands its
// output to emit chunk by chunk (rel.DefaultBatchSize-ish chunks; empty
// chunks are dropped); emit applies flow control and returns false when
// the cursor is closing, at which point fn must abandon its batch. fn
// must be safe for concurrent invocation on distinct batches, and each
// emitted chunk must be immutable once handed over. The first error —
// fn's or the input's, io.EOF included — is delivered in input order and
// latches.
func ParallelCursor(in Cursor, pool *exec.Pool, depth int, fn func(batch []Tuple, emit func([]Tuple) bool) error) Cursor {
	if depth < 1 {
		depth = 1
	}
	c := &parallelCursor{
		header: header{name: in.Name(), attrs: in.Attrs(), reg: in.Registry()},
		in:     in,
		pool:   pool,
		fn:     fn,
		slots:  make(chan chan parBatch, depth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.dispatch()
	return c
}

func (c *parallelCursor) dispatch() {
	defer close(c.done)
	defer close(c.slots)
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		batch, err := c.in.Next()
		if err != nil {
			slot := make(chan parBatch, 1)
			slot <- parBatch{err: err}
			close(slot)
			select {
			case c.slots <- slot:
			case <-c.stop:
			}
			return
		}
		slot := make(chan parBatch, slotChunkDepth)
		select {
		case c.slots <- slot: // blocks at depth batches in flight
		case <-c.stop:
			return
		}
		b := batch
		c.pool.Submit(func() {
			defer close(slot)
			ferr := c.fn(b, func(rows []Tuple) bool {
				if len(rows) == 0 {
					return true
				}
				select {
				case slot <- parBatch{rows: rows}:
					return true
				case <-c.stop:
					return false
				}
			})
			if ferr != nil {
				select {
				case slot <- parBatch{err: ferr}:
				case <-c.stop:
				}
			}
		})
	}
}

func (c *parallelCursor) Next() ([]Tuple, error) {
	if c.err != nil {
		return nil, c.err
	}
	for {
		if c.cur == nil {
			slot, ok := <-c.slots
			if !ok {
				// Dispatcher stopped without a terminal slot (Close raced
				// it): treat as exhaustion.
				c.err = io.EOF
				return nil, io.EOF
			}
			c.cur = slot
		}
		pb, ok := <-c.cur
		if !ok {
			c.cur = nil // slot exhausted; move to the next input batch
			continue
		}
		if pb.err != nil {
			c.err = pb.err
			return nil, pb.err
		}
		return pb.rows, nil // emit drops empty chunks
	}
}

func (c *parallelCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.err = io.EOF
	close(c.stop)
	select {
	case <-c.done:
		return c.in.Close()
	default:
		// The dispatcher may be parked inside in.Next (a stalled remote
		// stream). Close the inner cursor the moment it returns, off the
		// caller's goroutine — same policy as rel.Prefetch.
		go func() {
			<-c.done
			c.in.Close()
		}()
		return nil
	}
}
