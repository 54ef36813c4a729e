package federation

// This file is the horizontal-partitioning layer: ShardMap places every
// tuple of a logical source on one of N shards by a canonical-ID hash, Slice
// cuts a catalog into the slice one lqpd shard serves, and ShardedSource
// presents the N shards as a single resilient lqp.LQP — operations scatter
// across all shards concurrently and the results gather into one stream
// that is cell-for-cell identical (up to row order, which every consumer
// treats as insignificant) to the unsharded answer.
//
// Placement must agree between processes — the mediator prunes against the
// same map the lqpd shards were sliced with — so the shard hash is FNV-1a
// over Value.Key(), the canonical, normalized rendering of a datum
// (-0 folds into 0, every kind is prefixed). rel.Seed cannot serve here: it
// is deliberately per-process. The hash feeds rel.PartitionOf's
// multiply-shift range reduction.
//
// Gather is shard-major: shard 0's rows, then shard 1's, each leg prefetched
// on its own goroutine so all shards stream concurrently under a bounded
// number of in-flight batches. The order differs from the unsharded row
// order, but deterministically — the same shards in the same order — and
// the relational answer is a multiset: every property suite and every
// consumer compares sorted renderings.
//
// Duplicate semantics: a relation's rows deal to shards by their placement
// hash, so for Retrieve/Select/Restrict the shard slices partition the
// result multiset exactly and concatenation is the identity. Project
// eliminates duplicates per shard, but rows on different shards can project
// to the same value — exactly those cross-shard duplicates are eliminated at
// the gather by rel.DedupCursor, the cursor an LQP's own Project dedups
// with (first occurrence in shard-major order wins).

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

// FNV-1a constants (offset basis and prime) for the placement hash.
const (
	shardHashOffset = 0xCBF29CE484222325
	shardHashPrime  = 0x100000001B3
)

// shardPrefetchDepth bounds the batches buffered per shard leg of a
// scatter-gather stream: peak memory is shards x depth x batch.
const shardPrefetchDepth = 4

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= shardHashPrime
	}
	return h
}

// ShardHash returns the process-independent placement hash of one datum:
// FNV-1a over Value.Key(), the canonical normalized rendering.
func ShardHash(v rel.Value) uint64 {
	return fnvString(shardHashOffset, v.Key())
}

// TupleShardHash folds ShardHash over every cell of a tuple, for relations
// without a single-attribute placement key. The fold is framing-safe: each
// cell's Key() is self-delimiting (NUL-plus-kind prefixed).
func TupleShardHash(t rel.Tuple) uint64 {
	h := uint64(shardHashOffset)
	for _, v := range t {
		h = fnvString(h, v.Key())
	}
	return h
}

// ShardOf maps a placement hash to one of shards partitions via
// rel.PartitionOf.
func ShardOf(h uint64, shards int) int { return rel.PartitionOf(h, shards) }

// ShardMap is the placement contract of one logical source: how many shards
// its relations deal across, and per relation the attribute whose value
// places a tuple ("" or absent: the whole tuple hashes). Both sides of the
// federation derive it the same way — the lqpd shard from its catalog's
// declared keys (Slice), the mediator from the shards' statistics
// (ShardedSource.Stats) — so placement and pruning agree by construction.
type ShardMap struct {
	Shards int
	// Keys maps relation name to its single placement attribute; relations
	// with composite or undeclared keys hash the whole tuple.
	Keys map[string]string
}

// NewShardMap derives the placement map of db for the given shard count:
// relations with a single-attribute primary key place by that attribute,
// all others by whole-tuple hash.
func NewShardMap(db *catalog.Database, shards int) ShardMap {
	m := ShardMap{Shards: shards, Keys: make(map[string]string)}
	for _, name := range db.Relations() {
		if key, err := db.Key(name); err == nil && len(key) == 1 {
			m.Keys[name] = key[0]
		}
	}
	return m
}

// shardKeysOf extracts the placement-attribute map from relation statistics
// (the mediator-side counterpart of NewShardMap's catalog derivation).
func shardKeysOf(sts []lqp.RelationStats) map[string]string {
	keys := make(map[string]string, len(sts))
	for _, st := range sts {
		if len(st.Key) == 1 {
			keys[st.Name] = st.Key[0]
		}
	}
	return keys
}

// placement returns the shard-of-tuple function for one relation under
// schema.
func (m ShardMap) placement(relation string, schema *rel.Schema) func(rel.Tuple) int {
	if attr := m.Keys[relation]; attr != "" {
		if ki := schema.Index(attr); ki >= 0 {
			return func(t rel.Tuple) int { return ShardOf(ShardHash(t[ki]), m.Shards) }
		}
	}
	return func(t rel.Tuple) int { return ShardOf(TupleShardHash(t), m.Shards) }
}

// PrunePlan returns the single shard that can contribute rows to plan p, or
// -1 when every shard must be consulted. Pruning fires for an equality
// Select of a string constant against the relation's placement attribute:
// string equality is exact (Theta.Eval compares strings by content), so a
// matching row's placement hash is the constant's. Numeric constants never
// prune — Int and Float values compare equal across kinds but hash apart.
// Any pruning Select in the pipeline prunes the whole plan: every surviving
// output row passes the equality, so every contributing base row carries
// the constant in the placement attribute and lives on its shard
// (attribute names are stable through Project/Restrict steps).
func (m ShardMap) PrunePlan(p lqp.Plan) int {
	if m.Shards <= 1 {
		return 0
	}
	attr := m.Keys[p.Relation()]
	if attr == "" {
		return -1
	}
	for _, op := range p.Ops {
		if op.Kind == lqp.OpSelect && op.Theta == rel.ThetaEQ && op.Attr == attr && op.Const.Kind() == rel.KindString {
			return ShardOf(ShardHash(op.Const), m.Shards)
		}
	}
	return -1
}

// Slice returns shard idx's horizontal slice of db: the same relations,
// schemas and declared keys, holding exactly the tuples NewShardMap places
// on idx, in base order. The union of all slices reconstructs db exactly;
// cmd/lqpd -shard serves one.
func Slice(db *catalog.Database, idx, shards int) (*catalog.Database, error) {
	if shards < 1 {
		return nil, fmt.Errorf("federation: shard count %d < 1", shards)
	}
	if idx < 0 || idx >= shards {
		return nil, fmt.Errorf("federation: shard index %d outside [0,%d)", idx, shards)
	}
	m := NewShardMap(db, shards)
	out := catalog.NewDatabase(db.Name())
	for _, name := range db.Relations() {
		schema, tuples, err := db.View(name)
		if err != nil {
			return nil, err
		}
		key, err := db.Key(name)
		if err != nil {
			return nil, err
		}
		if err := out.Create(name, schema, key...); err != nil {
			return nil, err
		}
		place := m.placement(name, schema)
		var keep []rel.Tuple
		for _, t := range tuples {
			if place(t) == idx {
				keep = append(keep, t)
			}
		}
		if err := out.Insert(name, keep...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// planProjects reports whether the pipeline contains a Project — the only
// operation that introduces cross-shard duplicates (per-shard duplicate
// elimination cannot see a twin row on another shard).
func planProjects(p lqp.Plan) bool {
	for _, op := range p.Ops {
		if op.Kind == lqp.OpProject {
			return true
		}
	}
	return false
}

// ShardedSource presents N shard Sources (each itself a replicated,
// fault-tolerant Source) as one logical lqp.LQP. Operations prune to a single shard when the placement map proves
// only one can answer; otherwise they scatter to every shard concurrently
// and gather shard-major. A shard that exhausts its replicas exhausts the
// logical source — the answer never silently drops a shard's rows, and the
// PolicyPartial machinery degrades whole sources exactly as for unsharded
// ones. Safe for concurrent use.
type ShardedSource struct {
	name   string
	shards []*Source
	rows   []atomic.Int64 // rows served per shard, for V$SHARD

	mu   sync.Mutex
	keys map[string]string // learned from Stats; see shardMap
}

func newShardedSource(name string, shards []*Source) *ShardedSource {
	return &ShardedSource{name: name, shards: shards, rows: make([]atomic.Int64, len(shards))}
}

// Name implements lqp.LQP: the logical source name — shard fan-out is
// invisible in the answer's source tags.
func (s *ShardedSource) Name() string { return s.name }

// ShardCount returns the number of shards.
func (s *ShardedSource) ShardCount() int { return len(s.shards) }

// RowsServed returns how many rows shard i has delivered into gathered
// answers.
func (s *ShardedSource) RowsServed(i int) int64 { return s.rows[i].Load() }

// Bind implements Collectable.
func (s *ShardedSource) Bind(d *Diagnostics) lqp.LQP { return &boundSharded{s: s, d: d} }

// shardMap returns the current placement map: shard count plus the
// placement attributes learned from the shards' statistics. Before any
// Stats call the key map is empty — placement-correct (pruning just never
// fires) but slower; polygend's stats collection primes it at startup.
func (s *ShardedSource) shardMap() ShardMap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardMap{Shards: len(s.shards), Keys: s.keys}
}

// SetShardKeys installs the placement-attribute map directly (tests and
// embedders that know the catalog shape without a stats round trip).
func (s *ShardedSource) SetShardKeys(keys map[string]string) {
	s.mu.Lock()
	s.keys = keys
	s.mu.Unlock()
}

// wrap renames a shard-level exhaustion to the logical source: the
// degradation policy must drop (or fail on) the whole source, never a
// silent subset of its shards.
func (s *ShardedSource) wrap(err error) error {
	var ex *ExhaustedError
	if errors.As(err, &ex) && ex.Source != s.name {
		return &ExhaustedError{Source: s.name, Attempts: ex.Attempts, Last: err}
	}
	return err
}

// scatter fans call across every shard concurrently and returns the
// per-shard results in shard order, failing as a whole if any shard fails.
func scatter[T any](s *ShardedSource, call func(m *Source) (T, error)) ([]T, error) {
	out := make([]T, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = call(s.shards[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, s.wrap(err)
		}
	}
	return out, nil
}

// Relations implements lqp.LQP: every shard serves the same relation set,
// so the first shard that answers speaks for all.
func (s *ShardedSource) Relations() ([]string, error) { return s.relations(nil) }

func (s *ShardedSource) relations(d *Diagnostics) ([]string, error) {
	var last error
	for _, m := range s.shards {
		names, err := m.relations(d)
		if err == nil {
			return names, nil
		}
		last = err
	}
	if last == nil {
		last = errors.New("federation: no shards configured")
	}
	return nil, s.wrap(last)
}

// Stats implements lqp.LQP: per-relation cardinalities sum across
// shards (columns and keys agree by construction), so the cost model sees
// the logical relation sizes. As a side effect the placement-attribute map
// refreshes from the declared keys.
func (s *ShardedSource) Stats() ([]lqp.RelationStats, error) { return s.stats(nil) }

func (s *ShardedSource) stats(d *Diagnostics) ([]lqp.RelationStats, error) {
	parts, err := scatter(s, func(m *Source) ([]lqp.RelationStats, error) { return m.stats(d) })
	if err != nil {
		return nil, err
	}
	var merged []lqp.RelationStats
	at := make(map[string]int)
	for _, sts := range parts {
		for _, st := range sts {
			if i, ok := at[st.Name]; ok {
				merged[i].Rows += st.Rows
				continue
			}
			at[st.Name] = len(merged)
			merged = append(merged, st)
		}
	}
	s.SetShardKeys(shardKeysOf(merged))
	return merged, nil
}

// Open implements lqp.LQP: one operation is the one-step plan.
func (s *ShardedSource) Open(op lqp.Op) (rel.Cursor, error) { return s.OpenPlan(lqp.PlanOf(op)) }

// OpenPlan implements lqp.LQP: a plan scatters to every shard concurrently
// (each leg prefetched on its own goroutine, resuming mid-stream failures on
// its shard's replicas) and the gathered cursor streams the legs
// shard-major under bounded memory, so pushdown savings multiply by the
// fan-out instead of being lost.
func (s *ShardedSource) OpenPlan(p lqp.Plan) (rel.Cursor, error) { return s.openPlanStream(nil, p) }

func (s *ShardedSource) openPlanStream(d *Diagnostics, p lqp.Plan) (rel.Cursor, error) {
	return s.openScatter(d, s.shardMap().PrunePlan(p), planProjects(p),
		func(m *Source) (rel.Cursor, error) { return m.openPlanStream(d, p) })
}

// openScatter opens the stream on one pruned shard (target >= 0) or on all
// of them, gathered shard-major with cross-shard dedup when the pipeline
// projects.
func (s *ShardedSource) openScatter(d *Diagnostics, target int, dedup bool, open func(*Source) (rel.Cursor, error)) (rel.Cursor, error) {
	if target >= 0 {
		cur, err := open(s.shards[target])
		if err != nil {
			return nil, s.wrap(err)
		}
		return &shardCountCursor{s: s, in: cur, n: &s.rows[target]}, nil
	}
	legs, err := scatter(s, open)
	if err != nil {
		for _, leg := range legs {
			if leg != nil {
				leg.Close()
			}
		}
		return nil, err
	}
	for i, leg := range legs[1:] {
		if !leg.Schema().Equal(legs[0].Schema()) {
			err := fmt.Errorf("federation %s: shard %d schema %s diverges from shard 0's %s", s.name, i+1, leg.Schema(), legs[0].Schema())
			for _, l := range legs {
				l.Close()
			}
			return nil, err
		}
	}
	for i := range legs {
		legs[i] = rel.Prefetch(&shardCountCursor{s: s, in: legs[i], n: &s.rows[i]}, shardPrefetchDepth)
	}
	var cur rel.Cursor = &gatherCursor{s: s, legs: legs}
	if dedup {
		cur = rel.DedupCursor(cur)
	}
	return cur, nil
}

// shardCountCursor meters rows as a shard leg produces them and renames
// shard-level exhaustion errors to the logical source.
type shardCountCursor struct {
	s  *ShardedSource
	in rel.Cursor
	n  *atomic.Int64
}

func (c *shardCountCursor) Schema() *rel.Schema { return c.in.Schema() }

func (c *shardCountCursor) Next() ([]rel.Tuple, error) {
	batch, err := c.in.Next()
	switch err {
	case nil:
		c.n.Add(int64(len(batch)))
	case io.EOF:
	default:
		err = c.s.wrap(err)
	}
	return batch, err
}

func (c *shardCountCursor) Close() error { return c.in.Close() }

// gatherCursor streams the shard legs in shard-major order: leg 0 to
// exhaustion, then leg 1, and so on. The legs are prefetched, so later
// shards produce concurrently (up to the prefetch depth) while earlier ones
// drain. A leg error — a shard whose replicas are all gone mid-stream —
// fails the whole gather as the logical source.
type gatherCursor struct {
	s      *ShardedSource
	legs   []rel.Cursor
	at     int
	closed bool
}

func (g *gatherCursor) Schema() *rel.Schema { return g.legs[0].Schema() }

func (g *gatherCursor) Next() ([]rel.Tuple, error) {
	for g.at < len(g.legs) {
		batch, err := g.legs[g.at].Next()
		if err == nil {
			return batch, nil
		}
		if err != io.EOF {
			return nil, g.s.wrap(err)
		}
		g.at++
	}
	return nil, io.EOF
}

func (g *gatherCursor) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	var first error
	for _, leg := range g.legs {
		if err := leg.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// boundSharded is a ShardedSource view reporting into one query's
// Diagnostics.
type boundSharded struct {
	s *ShardedSource
	d *Diagnostics
}

func (b *boundSharded) Name() string                            { return b.s.name }
func (b *boundSharded) Relations() ([]string, error)            { return b.s.relations(b.d) }
func (b *boundSharded) Open(op lqp.Op) (rel.Cursor, error)      { return b.OpenPlan(lqp.PlanOf(op)) }
func (b *boundSharded) OpenPlan(p lqp.Plan) (rel.Cursor, error) { return b.s.openPlanStream(b.d, p) }
func (b *boundSharded) Stats() ([]lqp.RelationStats, error)     { return b.s.stats(b.d) }
func (b *boundSharded) Bind(d *Diagnostics) lqp.LQP             { return &boundSharded{s: b.s, d: d} }

var (
	_ lqp.LQP     = (*ShardedSource)(nil)
	_ Collectable = (*ShardedSource)(nil)
	_ lqp.LQP     = (*boundSharded)(nil)
	_ Collectable = (*boundSharded)(nil)
)
