package core

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"unsafe"

	"repro/internal/rel"
	"repro/internal/segment"
	"repro/internal/sourceset"
)

// This file implements memory-budgeted spill-to-disk for the streaming hash
// operators. An Algebra configured with a Memory (SetMemory) bounds the
// bytes of tuple state its blocking sides may hold: when an operator's
// accumulated build or dedup state crosses the budget, whole hash
// partitions grace-spill to checksummed temp segments (the same framing as
// the lqpd write-ahead log, with the tagged column codec as the payload, so
// origin and intermediate tag sets survive the disk round trip) and are
// re-read and processed partition-at-a-time once the streaming phase ends.
//
// The spilling operators are the ones with unbounded blocking state:
//
//   - Join (θ = "="): the build side is radix-partitioned by canonical key
//     ID as it drains. Resident partitions are indexed and probed in
//     stream; probe rows that hash to a spilled partition are deferred to
//     per-partition probe files and joined partition-by-partition at probe
//     end — the classic hybrid hash join (Shapiro '86 via DeWitt).
//   - Project and Union: the dedup table is partitioned by data hash.
//     A spilled partition's rows (tags already partially merged) are
//     re-deduplicated partition-locally on reload; duplicates co-partition
//     because the partition is a function of the data hash, and tag-set
//     union is associative and commutative, so re-merging pre-merged runs
//     yields exactly the in-memory result.
//   - Difference: the drop side partitions like the dedup table; probe
//     rows hashing to spilled partitions are deferred and anti-joined
//     partition-locally at the end. The p2(o) intermediate union is
//     accumulated while draining, so it is exact regardless of residency.
//
// Intersect and Merge keep their in-memory builds (Intersect's state is
// bounded by the smaller operand, Merge's keyed pass holds every fragment), as
// does the non-equality Join fallback. Row order differs from the in-memory
// path (spilled partitions emit last); the polygen algebra is set-semantic,
// and the property suites compare order-insensitively.

// DefaultSpillPartitions is the spill fan-out when Memory.Partitions is
// unset: enough that a single resident partition is ~1/16 of the input.
const DefaultSpillPartitions = 16

// spillFrameRows is how many tuples accumulate in a column batch before it
// is framed and appended to the temp segment.
const spillFrameRows = 256

// Memory is the per-algebra memory budget: operators spill to disk rather
// than exceed Budget bytes of blocking tuple state. The zero value (or a
// nil *Memory) disables spilling. The counters are cumulative across every
// operator sharing the Memory and are safe for concurrent reads — they feed
// the V$STORE-style observability surfaces.
type Memory struct {
	// Budget is the soft cap, in bytes, on an operator's resident blocking
	// state (build side, dedup table). <= 0 disables spilling.
	Budget int64
	// TempDir is where spill segments are created; "" means os.TempDir().
	TempDir string
	// Partitions is the spill fan-out; <= 0 means DefaultSpillPartitions.
	Partitions int

	// Spills counts partitions written to disk; SpilledRows and
	// SpilledBytes the tuples and framed bytes that crossed. Reloads
	// counts partition files read back.
	Spills       atomic.Int64
	SpilledRows  atomic.Int64
	SpilledBytes atomic.Int64
	Reloads      atomic.Int64
}

// SetMemory configures the memory budget. It must be called while wiring,
// before the Algebra is shared.
func (a *Algebra) SetMemory(m *Memory) { a.mem = m }

// Memory returns the configured budget, nil if none.
func (a *Algebra) Memory() *Memory { return a.mem }

// memActive returns the Memory when spilling is enabled, else nil.
func (a *Algebra) memActive() *Memory {
	if a.mem != nil && a.mem.Budget > 0 {
		return a.mem
	}
	return nil
}

func (m *Memory) partitions() int {
	if m.Partitions > 0 {
		return m.Partitions
	}
	return DefaultSpillPartitions
}

func (m *Memory) dir() string {
	if m.TempDir != "" {
		return m.TempDir
	}
	return os.TempDir()
}

// approxTupleBytes estimates the resident cost of a tuple: its slice header,
// the cell structs and the string payloads. Tag sets are interned and shared,
// so they are charged at header cost only (inside the cell). The budget is a
// soft target; the estimate errs cheap so spilling engages before, not
// after, real pressure.
func approxTupleBytes(t Tuple) int64 {
	n := int64(unsafe.Sizeof(Tuple{})) + int64(len(t))*int64(unsafe.Sizeof(Cell{}))
	for _, c := range t {
		n += int64(len(c.D.Str()))
	}
	return n
}

// spillFile is one checksummed temp segment of tagged column frames. Writes
// buffer into a ColBatch and frame every spillFrameRows tuples; load seeks
// back and decodes every frame. The file is unlinked on discard.
type spillFile struct {
	mem   *Memory
	f     *os.File
	w     *segment.Writer
	pend  *ColBatch
	name  string
	attrs []Attr
	reg   *sourceset.Registry
	rows  int
	buf   []byte
}

func newSpillFile(mem *Memory, name string, attrs []Attr, reg *sourceset.Registry) (*spillFile, error) {
	f, err := os.CreateTemp(mem.dir(), "polygen-spill-*.seg")
	if err != nil {
		return nil, fmt.Errorf("core: creating spill segment: %w", err)
	}
	mem.Spills.Add(1)
	return &spillFile{mem: mem, f: f, w: segment.NewWriter(f, 0), name: name, attrs: attrs, reg: reg}, nil
}

// add buffers one tuple (copied — the caller may reuse t).
func (s *spillFile) add(t Tuple) error {
	if s.pend == nil {
		s.pend = NewColBatch(s.name, s.reg, s.attrs)
	}
	s.pend.AppendTuple(t)
	s.rows++
	s.mem.SpilledRows.Add(1)
	if s.pend.Len() >= spillFrameRows {
		return s.flushFrame()
	}
	return nil
}

func (s *spillFile) flushFrame() error {
	if s.pend == nil || s.pend.Len() == 0 {
		return nil
	}
	s.buf = AppendFrame(s.buf[:0], s.pend)
	if _, err := s.w.Append(s.buf); err != nil {
		return err
	}
	s.mem.SpilledBytes.Add(int64(len(s.buf)))
	s.pend = nil
	return nil
}

// load returns every spilled tuple. Unlike WAL recovery, a torn or rotted
// spill segment is a hard error — it is live query state, not a crash tail.
func (s *spillFile) load() ([]Tuple, error) {
	if err := s.flushFrame(); err != nil {
		return nil, err
	}
	if err := s.w.Flush(); err != nil { // no fsync: spill data dies with the query
		return nil, err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("core: rewinding spill segment: %w", err)
	}
	s.mem.Reloads.Add(1)
	rows := make([]Tuple, 0, s.rows)
	_, err := segment.Scan(s.f.Name(), s.f, func(off int64, payload []byte) error {
		b, err := DecodeFrame(payload, s.name, s.attrs, s.reg)
		if err != nil {
			return err
		}
		rows = append(rows, b.Rows()...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: reading spill segment: %w", err)
	}
	if len(rows) != s.rows {
		return nil, fmt.Errorf("core: spill segment %s holds %d rows, wrote %d", s.f.Name(), len(rows), s.rows)
	}
	return rows, nil
}

// discard closes and unlinks the segment.
func (s *spillFile) discard() {
	if s == nil || s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
}

// spillParts is a budget-bounded partitioned tuple accumulator — the shared
// build-side state of the hybrid hash Join and the Difference drop side.
// The caller routes each tuple to a partition (by canonical key ID or data
// hash); when the resident total crosses the budget the largest resident
// partition is evicted to a spillFile, and every later arrival for it goes
// straight to disk.
type spillParts struct {
	mem   *Memory
	name  string
	attrs []Attr
	reg   *sourceset.Registry

	rows  [][]Tuple
	bytes []int64
	files []*spillFile
	inMem int64
}

func newSpillParts(mem *Memory, name string, attrs []Attr, reg *sourceset.Registry) *spillParts {
	n := mem.partitions()
	return &spillParts{
		mem: mem, name: name, attrs: attrs, reg: reg,
		rows:  make([][]Tuple, n),
		bytes: make([]int64, n),
		files: make([]*spillFile, n),
	}
}

func (sp *spillParts) parts() int { return len(sp.rows) }

// idPartMix spreads the resolver's dense sequential canonical IDs across
// the 64-bit space (Fibonacci hashing) so rel.PartitionOf — which reads
// high bits — balances the join's ID partitions.
const idPartMix = 0x9E3779B97F4A7C15

// idPartOf is the spill partition of a canonical join-key ID.
func idPartOf(id uint64, parts int) int {
	return rel.PartitionOf(id*idPartMix, parts)
}

func (sp *spillParts) add(p int, t Tuple) error {
	if f := sp.files[p]; f != nil {
		return f.add(t)
	}
	sp.rows[p] = append(sp.rows[p], t)
	sz := approxTupleBytes(t)
	sp.bytes[p] += sz
	sp.inMem += sz
	if sp.inMem > sp.mem.Budget {
		return sp.evictLargest()
	}
	return nil
}

// evictLargest spills the resident partition holding the most bytes.
func (sp *spillParts) evictLargest() error {
	best := -1
	for p := range sp.rows {
		if sp.files[p] == nil && len(sp.rows[p]) > 0 && (best < 0 || sp.bytes[p] > sp.bytes[best]) {
			best = p
		}
	}
	if best < 0 {
		return nil // everything already on disk
	}
	f, err := newSpillFile(sp.mem, sp.name, sp.attrs, sp.reg)
	if err != nil {
		return err
	}
	for _, t := range sp.rows[best] {
		if err := f.add(t); err != nil {
			f.discard()
			return err
		}
	}
	sp.files[best] = f
	sp.inMem -= sp.bytes[best]
	sp.rows[best], sp.bytes[best] = nil, 0
	return nil
}

func (sp *spillParts) spilled(p int) bool { return sp.files[p] != nil }

func (sp *spillParts) anySpilled() bool {
	for _, f := range sp.files {
		if f != nil {
			return true
		}
	}
	return false
}

// memTuples concatenates the resident partitions.
func (sp *spillParts) memTuples() []Tuple {
	total := 0
	for _, r := range sp.rows {
		total += len(r)
	}
	out := make([]Tuple, 0, total)
	for _, r := range sp.rows {
		out = append(out, r...)
	}
	return out
}

// release unlinks every remaining spill segment.
func (sp *spillParts) release() {
	if sp == nil {
		return
	}
	for p, f := range sp.files {
		f.discard()
		sp.files[p] = nil
	}
}

// dedupSpill is the budget-aware replacement for the single (Relation,
// dataIndex) dedup table of Project and Union: one partition-local table
// per data-hash partition, the largest resident partition evicted when the
// budget is crossed. result() reloads spilled partitions and re-dedups them
// partition-locally, which is exact (see the file comment).
type dedupSpill struct {
	mem   *Memory
	attrs []Attr
	reg   *sourceset.Registry

	outs  []*Relation
	ixs   []dataIndex
	bytes []int64
	files []*spillFile
	inMem int64
}

func newDedupSpill(mem *Memory, attrs []Attr, reg *sourceset.Registry) *dedupSpill {
	n := mem.partitions()
	return &dedupSpill{
		mem: mem, attrs: attrs, reg: reg,
		outs:  make([]*Relation, n),
		ixs:   make([]dataIndex, n),
		bytes: make([]int64, n),
		files: make([]*spillFile, n),
	}
}

func (d *dedupSpill) add(t Tuple) error {
	h := t.DataHash64()
	p := rel.PartitionOf(h, len(d.outs))
	if f := d.files[p]; f != nil {
		// Dedup against disk is deferred to result(); the raw row goes out
		// with its tags and is merged partition-locally on reload.
		return f.add(t)
	}
	if d.outs[p] == nil {
		d.outs[p] = NewRelation("", d.reg, d.attrs...)
		d.ixs[p] = newDataIndex(rel.DefaultBatchSize)
	}
	if dedupInsertHashed(d.outs[p], d.ixs[p], t, h) {
		sz := approxTupleBytes(t)
		d.bytes[p] += sz
		d.inMem += sz
		if d.inMem > d.mem.Budget {
			return d.evictLargest()
		}
	}
	return nil
}

func (d *dedupSpill) evictLargest() error {
	best := -1
	for p := range d.outs {
		if d.files[p] == nil && d.outs[p] != nil && len(d.outs[p].Tuples) > 0 &&
			(best < 0 || d.bytes[p] > d.bytes[best]) {
			best = p
		}
	}
	if best < 0 {
		return nil
	}
	f, err := newSpillFile(d.mem, "", d.attrs, d.reg)
	if err != nil {
		return err
	}
	for _, t := range d.outs[best].Tuples {
		if err := f.add(t); err != nil {
			f.discard()
			return err
		}
	}
	d.files[best] = f
	d.inMem -= d.bytes[best]
	d.outs[best], d.ixs[best], d.bytes[best] = nil, dataIndex{}, 0
	return nil
}

// result assembles the final deduplicated relation: resident partitions
// verbatim, spilled partitions reloaded and re-deduplicated locally.
func (d *dedupSpill) result() (*Relation, error) {
	out := NewRelation("", d.reg, d.attrs...)
	for p := range d.outs {
		if f := d.files[p]; f != nil {
			rows, err := f.load()
			if err != nil {
				return nil, err
			}
			f.discard()
			d.files[p] = nil
			sub := NewRelation("", d.reg, d.attrs...)
			ix := newDataIndex(len(rows))
			for _, t := range rows {
				dedupInsert(sub, ix, t)
			}
			out.Tuples = append(out.Tuples, sub.Tuples...)
		} else if d.outs[p] != nil {
			out.Tuples = append(out.Tuples, d.outs[p].Tuples...)
		}
	}
	return out, nil
}

func (d *dedupSpill) release() {
	if d == nil {
		return
	}
	for p, f := range d.files {
		f.discard()
		d.files[p] = nil
	}
}

// consumeErr is consume with a fallible visitor: the first error closes the
// cursor and propagates.
func consumeErr(c Cursor, fn func(Tuple) error) error {
	for {
		batch, err := c.Next()
		if err == io.EOF {
			return c.Close()
		}
		if err != nil {
			c.Close()
			return err
		}
		for _, t := range batch {
			if err := fn(t); err != nil {
				c.Close()
				return err
			}
		}
	}
}
