package rel

import (
	"fmt"
	"io"
)

// This file defines the streaming substrate of the execution engine: a
// Cursor yields a relation batch-at-a-time instead of materializing it, so
// a query's peak memory is bounded by the batches in flight rather than by
// the sum of its intermediate results, and remote retrieval can overlap
// with downstream operator work (EMBANKS-style memory-bounded streaming,
// layered under the polygen algebra's tagged cursors in package core).

// DefaultBatchSize is the number of tuples per batch used by the engine's
// cursors and by the wire protocol's row frames when the caller does not
// choose one. Batches are small enough to bound memory and large enough to
// amortize per-batch overhead (interface calls, frame headers, prefetch
// hand-offs).
const DefaultBatchSize = 256

// Cursor is a pull-based producer of tuple batches over a fixed schema.
//
// Next returns the next non-empty batch, or (nil, io.EOF) after the last
// one; any other error is a failure of the underlying producer. A returned
// batch is immutable: neither the cursor nor the consumer may modify its
// tuples (they may share storage with a live base relation), and it remains
// valid across subsequent Next calls — consumers that retain tuples need
// not copy them. Cursors are single-consumer and not safe for concurrent
// use; wrap one in Prefetch to move production onto its own goroutine.
//
// Close releases the cursor's resources (goroutines, connections). It is
// idempotent, and must be called even when Next has already returned an
// error or io.EOF.
type Cursor interface {
	// Schema describes the columns of every batch.
	Schema() *Schema
	// Next returns the next batch, or (nil, io.EOF) when exhausted.
	Next() ([]Tuple, error)
	// Close releases the cursor's resources.
	Close() error
}

// sliceCursor cuts an in-memory tuple slice into batches.
type sliceCursor struct {
	schema *Schema
	tuples []Tuple
	at     int
	batch  int
}

// NewSliceCursor returns a cursor over tuples with the given batch size
// (values < 1 mean DefaultBatchSize). The slice is read, never copied: the
// batches alias it.
func NewSliceCursor(schema *Schema, tuples []Tuple, batch int) Cursor {
	if batch < 1 {
		batch = DefaultBatchSize
	}
	return &sliceCursor{schema: schema, tuples: tuples, batch: batch}
}

// CursorOf returns a cursor over r's tuples in DefaultBatchSize batches.
func CursorOf(r *Relation) Cursor {
	return NewSliceCursor(r.Schema, r.Tuples, DefaultBatchSize)
}

func (c *sliceCursor) Schema() *Schema { return c.schema }

func (c *sliceCursor) Next() ([]Tuple, error) {
	if c.at >= len(c.tuples) {
		return nil, io.EOF
	}
	end := c.at + c.batch
	if end > len(c.tuples) {
		end = len(c.tuples)
	}
	b := c.tuples[c.at:end:end]
	c.at = end
	return b, nil
}

// NextCol implements ColCursor: the next batch-sized run, columnarized. Next
// keeps its zero-copy row batches; only columnar consumers (the wire
// server's binary frames) pay for the conversion.
func (c *sliceCursor) NextCol() (*ColBatch, error) {
	if c.at >= len(c.tuples) {
		return nil, io.EOF
	}
	end := c.at + c.batch
	if end > len(c.tuples) {
		end = len(c.tuples)
	}
	b := FromTuples(c.schema, c.tuples[c.at:end])
	c.at = end
	return b, nil
}

func (c *sliceCursor) Close() error {
	c.at = len(c.tuples)
	return nil
}

var _ ColCursor = (*sliceCursor)(nil)

// filterCursor streams the tuples of an input cursor that satisfy a
// predicate.
type filterCursor struct {
	in   Cursor
	keep func(Tuple) bool
}

// FilterCursor returns a cursor over the tuples of in for which keep holds.
// Tuples pass through unchanged (and therefore share storage with in's
// batches). Filtering is fully pipelined: one input batch is in flight at a
// time.
func FilterCursor(in Cursor, keep func(Tuple) bool) Cursor {
	return &filterCursor{in: in, keep: keep}
}

func (c *filterCursor) Schema() *Schema { return c.in.Schema() }

func (c *filterCursor) Next() ([]Tuple, error) {
	for {
		batch, err := c.in.Next()
		if err != nil {
			return nil, err
		}
		out := batch[:0:0]
		for _, t := range batch {
			if c.keep(t) {
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (c *filterCursor) Close() error { return c.in.Close() }

// dedupCursor streams the rows of an input cursor, optionally narrowed to
// some of its columns, and optionally with duplicates eliminated. It is the
// one duplicate-eliminating stream of the engine: an LQP's Project and the
// federation's cross-shard gather both run on it.
type dedupCursor struct {
	in     Cursor
	schema *Schema
	cols   []int // projected columns; nil passes rows whole and uncopied
	dedup  bool
	// emitted holds the rows emitted so far, which seen buckets by
	// position (dedup only); without dedup it holds the current batch's.
	seen    BucketIndex
	emitted []Tuple
	scratch Tuple
	// arena backs the projected copies. A chunk holds one input batch's
	// worth of rows (at most arenaChunkValues values), so a small answer
	// pays for a small chunk.
	arena []Value
}

// arenaChunkValues caps the value count of one projectCursor arena chunk.
const arenaChunkValues = 4096

// DedupCursor returns a cursor over the rows of in with duplicates
// eliminated: a row Identical to one already emitted is dropped, so the
// first occurrence in stream order wins. Kept rows pass through uncopied
// and are retained for the comparison (the Cursor contract keeps them
// valid), so memory is bounded by the distinct result.
func DedupCursor(in Cursor) Cursor {
	return &dedupCursor{in: in, schema: in.Schema(), dedup: true, seen: NewBucketIndex(0)}
}

// ProjectCursor returns a cursor over the rows of in narrowed to the named
// attributes, in that order. Each row is narrowed into a scratch tuple, and
// only a row that is emitted is copied. With dedup, duplicates are
// eliminated as by DedupCursor; without it every row is emitted, which is
// right when the projection keeps a key of the input. rows, when positive,
// bounds how many rows in holds and sizes the dedup table up front, so it
// never grows. The stream is fully pipelined: each input batch yields its
// output batch. On error in is closed.
func ProjectCursor(in Cursor, attrs []string, dedup bool, rows int) (Cursor, error) {
	src := in.Schema()
	cols := make([]int, len(attrs))
	out := make([]Attr, len(attrs))
	for i, a := range attrs {
		if cols[i] = src.Index(a); cols[i] < 0 {
			in.Close()
			return nil, fmt.Errorf("rel: no attribute %q in %s", a, src)
		}
		out[i] = src.Attr(cols[i])
	}
	schema, err := MakeSchema(out...)
	if err != nil {
		in.Close()
		return nil, err
	}
	c := &dedupCursor{in: in, schema: schema, cols: cols, dedup: dedup, scratch: make(Tuple, len(cols))}
	if dedup {
		c.seen, c.emitted = NewBucketIndex(rows), make([]Tuple, 0, rows)
	}
	return c, nil
}

func (c *dedupCursor) Schema() *Schema { return c.schema }

func (c *dedupCursor) Next() ([]Tuple, error) {
	for {
		batch, err := c.in.Next()
		if err != nil {
			return nil, err
		}
		if !c.dedup {
			c.emitted = make([]Tuple, 0, len(batch))
		}
		// The batch returned is the tail of emitted that this call appends,
		// capacity-clamped: later appends never touch it.
		start := len(c.emitted)
		for _, t := range batch {
			row := t
			if c.cols != nil {
				for i, ci := range c.cols {
					c.scratch[i] = t[ci]
				}
				row = c.scratch
			}
			if c.dedup {
				h := row.Hash64(Seed)
				if _, dup := c.seen.Find(h, func(at int) bool { return c.emitted[at].Identical(row) }); dup {
					continue
				}
				c.seen.Add(h, len(c.emitted))
			}
			if c.cols != nil {
				n := len(c.scratch)
				if cap(c.arena)-len(c.arena) < n {
					c.arena = make([]Value, 0, max(n, min(len(batch)*n, arenaChunkValues)))
				}
				at := len(c.arena)
				c.arena = append(c.arena, c.scratch...)
				row = c.arena[at : at+n : at+n]
			}
			c.emitted = append(c.emitted, row)
		}
		if end := len(c.emitted); end > start {
			return c.emitted[start:end:end], nil
		}
	}
}

func (c *dedupCursor) Close() error { return c.in.Close() }

// Drain materializes a cursor into a relation (with the cursor's schema and
// no name) and closes it. Batch tuples are retained, not copied — the
// Cursor contract keeps them valid and immutable.
func Drain(c Cursor) (*Relation, error) {
	out := NewRelation("", c.Schema())
	for {
		batch, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		out.Tuples = append(out.Tuples, batch...)
	}
	return out, c.Close()
}

// prefetched is one hand-off from a prefetch producer to its consumer: a
// row batch, or a whole column batch when the inner cursor is columnar.
type prefetched struct {
	batch []Tuple
	cb    *ColBatch
	err   error
}

// prefetchCursor runs its input cursor on a producer goroutine, keeping up
// to depth batches buffered ahead of the consumer.
type prefetchCursor struct {
	schema *Schema
	in     Cursor
	icc    ColCursor // in's columnar capability, nil without one
	ch     chan prefetched
	stop   chan struct{}
	done   chan struct{}
	err    error
	closed bool
}

// Prefetch wraps in so that batches are produced on a dedicated goroutine,
// up to depth batches ahead of the consumer (depth < 1 means 1). This is
// what lets a slow producer — a wide-area LQP, an injected-latency wrapper —
// overlap with downstream operator work: the producer sleeps or waits on
// the network while the consumer computes. Close stops the producer and
// closes the inner cursor; it must be called even on early abandonment.
//
// The columnar capability passes through: over a ColCursor the producer
// hands whole column batches across the channel, and row consumers get the
// batch's cached row view — so a binary wire stream stays columnar from the
// socket to the operator without re-boxing at the prefetch seam.
func Prefetch(in Cursor, depth int) Cursor {
	if depth < 1 {
		depth = 1
	}
	icc, _ := in.(ColCursor)
	p := &prefetchCursor{
		schema: in.Schema(),
		in:     in,
		icc:    icc,
		ch:     make(chan prefetched, depth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *prefetchCursor) run() {
	defer close(p.done)
	defer close(p.ch)
	for {
		// Check stop before producing, not only at the hand-off: when the
		// buffer has room, the send would win the race against a
		// just-closed stop and the producer would keep draining the inner
		// cursor — up to depth extra batches of work (and inner Next calls)
		// after Close. An abandoned cursor must stop at the next iteration.
		select {
		case <-p.stop:
			return
		default:
		}
		var pf prefetched
		if p.icc != nil {
			pf.cb, pf.err = p.icc.NextCol()
		} else {
			pf.batch, pf.err = p.in.Next()
		}
		select {
		case p.ch <- pf:
			if pf.err != nil {
				return
			}
		case <-p.stop:
			return
		}
	}
}

func (p *prefetchCursor) Schema() *Schema { return p.schema }

// next receives one hand-off; exactly one of the batch forms is non-empty.
func (p *prefetchCursor) next() ([]Tuple, *ColBatch, error) {
	if p.err != nil {
		return nil, nil, p.err
	}
	pf, ok := <-p.ch
	if !ok {
		// Producer stopped without delivering an error (Close raced a
		// concurrent producer exit); treat as exhaustion.
		p.err = io.EOF
		return nil, nil, io.EOF
	}
	if pf.err != nil {
		p.err = pf.err
		return nil, nil, pf.err
	}
	return pf.batch, pf.cb, nil
}

func (p *prefetchCursor) Next() ([]Tuple, error) {
	batch, cb, err := p.next()
	if err != nil {
		return nil, err
	}
	if cb != nil {
		return cb.Rows(), nil
	}
	return batch, nil
}

// NextCol implements ColCursor regardless of the inner cursor: columnar
// inners hand batches through unchanged, row inners are columnarized here.
func (p *prefetchCursor) NextCol() (*ColBatch, error) {
	batch, cb, err := p.next()
	if err != nil {
		return nil, err
	}
	if cb == nil {
		cb = FromTuples(p.schema, batch)
	}
	return cb, nil
}

var _ ColCursor = (*prefetchCursor)(nil)

func (p *prefetchCursor) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	close(p.stop)
	select {
	case <-p.done:
		// Producer already exited (it delivered EOF or an error, or raced
		// ahead of a parked hand-off): close the inner cursor in place.
		return p.in.Close()
	default:
		// The producer may be parked inside in.Next — a network read on a
		// stalled remote stream, an injected-latency sleep. Don't block the
		// caller on it: the inner cursor is closed the moment the producer
		// returns (a parked hand-off notices stop immediately; a parked
		// in.Next at worst runs to its own deadline on the producer
		// goroutine, not the caller's).
		go func() {
			<-p.done
			p.in.Close()
		}()
		return nil
	}
}
