// Package stats maintains the per-LQP statistics that drive the cost-based
// federated query optimizer: relation cardinalities and column lists
// (collected through lqp.LQP's Stats) and observed
// wide-area link latencies (exponentially-weighted moving averages fed by
// the PQP as it executes local operations, or seeded by benchmarks that
// model known links).
//
// The paper's Query Optimizer box (Figure 2) is declared "beyond the
// scope"; this package supplies the minimum a federation needs for the
// decisions that dominate wide-area cost. The optimizer's rewrites are
// gated on the cardinalities and column lists (projection-narrowing width
// checks, the key-aware join-order cost model); the latency averages are
// the catalog's observability arm — TransferCost turns them into the
// estimated wide-area cost of a planned transfer: a link pays its latency
// once per batch of rows it ships, so the cost follows the rows that cross
// the boundary, not the operation count.
// The catalog is deliberately approximate — stale counts only cost plan
// quality, never correctness, because every rewrite the optimizer performs
// is independently proven identity-preserving.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lqp"
)

// DefaultFilterSelectivity is the fraction of rows assumed to survive a
// Select or Restrict when no better estimate exists — the classic 1/3 of
// System R's descendants. It only influences cost ranking, never results.
const DefaultFilterSelectivity = 1.0 / 3

// Key identifies one local relation of one local database.
type Key struct {
	DB       string
	Relation string
}

// Relation is the collected statistics of one local relation.
type Relation struct {
	// Rows is the cardinality at collection time.
	Rows int
	// Columns lists the attribute names in schema order.
	Columns []string
	// Key lists the primary key attributes (empty when undeclared).
	Key []string
}

// Catalog is a concurrency-safe store of relation and link statistics. One
// catalog serves one federation; the PQP carries it across queries so
// estimates warm up once.
type Catalog struct {
	// id identifies this catalog instance, drawn from a process-wide
	// monotonic counter: catalog identity in a plan-cache key must not be
	// an address (a freed catalog's slot can be reused by its successor).
	id uint64
	// version counts plan-relevant catalog changes: relation statistics
	// being set or replaced, cardinalities that actually move, and pinned
	// latencies. The PQP's plan cache keys optimized plans on it, so a
	// collection pass or a real cardinality shift re-plans while steady-state
	// execution — whose per-operation latency observations only nudge the
	// EWMA — keeps hitting cached plans. Accessed atomically.
	version atomic.Uint64

	mu     sync.RWMutex
	rels   map[Key]Relation
	lat    map[string]time.Duration
	faults map[string]*FaultCounters
}

// nextCatalogID hands out process-unique catalog IDs.
var nextCatalogID atomic.Uint64

// ID returns the catalog's process-unique instance identifier. Two
// catalogs never share an ID, even when one is allocated after the other
// is garbage: plans cached against a replaced catalog can therefore never
// be mistaken for plans against its successor.
func (c *Catalog) ID() uint64 { return c.id }

// Version returns the catalog's plan-relevant change counter. Two calls
// returning the same value bracket a window in which no statistics change
// that could alter an optimizer decision was recorded.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		id:   nextCatalogID.Add(1),
		rels: make(map[Key]Relation),
		lat:  make(map[string]time.Duration),
	}
}

// SetRelation records (or replaces) the statistics of db's relation.
func (c *Catalog) SetRelation(db string, rs lqp.RelationStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rels[Key{DB: db, Relation: rs.Name}] = Relation{
		Rows:    rs.Rows,
		Columns: append([]string(nil), rs.Columns...),
		Key:     append([]string(nil), rs.Key...),
	}
	c.version.Add(1)
}

// Relation returns the statistics of db's relation.
func (c *Catalog) Relation(db, relation string) (Relation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.rels[Key{DB: db, Relation: relation}]
	return r, ok
}

// Cardinality returns the recorded row count of db's relation.
func (c *Catalog) Cardinality(db, relation string) (int, bool) {
	r, ok := c.Relation(db, relation)
	return r.Rows, ok
}

// Columns returns the recorded column list of db's relation. An entry
// recorded without columns reads as unknown, so a cardinality-only entry
// can only improve plans, never disable column-dependent rewrites.
func (c *Catalog) Columns(db, relation string) ([]string, bool) {
	r, ok := c.Relation(db, relation)
	if !ok || len(r.Columns) == 0 {
		return nil, false
	}
	return r.Columns, true
}

// latencyAlpha is the EWMA weight of a fresh latency observation.
const latencyAlpha = 0.25

// ObserveLatency folds one measured round-trip (or per-batch transfer) time
// into db's moving average. It deliberately does not bump Version: EWMA
// drift is not a plan-relevant change, and counting it as one would
// invalidate the plan cache on every observation. Latency only tilts cost
// ranking, never correctness; SetLatency — the deliberate re-model — does
// bump.
func (c *Catalog) ObserveLatency(db string, d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.lat[db]
	if !ok {
		c.lat[db] = d
		return
	}
	c.lat[db] = time.Duration(latencyAlpha*float64(d) + (1-latencyAlpha)*float64(prev))
}

// SetLatency pins db's link latency — benchmarks use it to model known
// wide-area links instead of waiting for the average to converge.
func (c *Catalog) SetLatency(db string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lat[db] = d
	c.version.Add(1)
}

// Latency returns db's current link latency estimate.
func (c *Catalog) Latency(db string) (time.Duration, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.lat[db]
	return d, ok
}

// Latencies returns a copy of every link latency estimate, keyed by local
// database name, taken under one lock acquisition — a consistent snapshot
// for the V$SOURCE_STATS virtual table and the /metrics endpoint.
func (c *Catalog) Latencies() map[string]time.Duration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]time.Duration, len(c.lat))
	for db, d := range c.lat {
		out[db] = d
	}
	return out
}

// TransferCost estimates the wide-area cost of shipping rows result rows
// from db: one link latency per batch of batchSize rows, at least one batch
// (a streamed transfer pays as each batch arrives). Unknown links cost zero
// latency (in-process LQPs).
func (c *Catalog) TransferCost(db string, rows, batchSize int) time.Duration {
	lat, ok := c.Latency(db)
	if !ok || batchSize <= 0 {
		return 0
	}
	batches := 1
	if n := (rows + batchSize - 1) / batchSize; n > 1 {
		batches = n
	}
	return time.Duration(batches) * lat
}

// Collect probes every LQP's Stats and returns a fresh catalog. The probe
// round-trip time seeds each LQP's latency estimate; a probe error aborts
// the collection.
func Collect(lqps map[string]lqp.LQP) (*Catalog, error) {
	c := NewCatalog()
	for db, l := range lqps {
		start := time.Now()
		st, err := l.Stats()
		if err != nil {
			return nil, fmt.Errorf("stats: collecting from %s: %w", db, err)
		}
		c.ObserveLatency(db, time.Since(start))
		for _, rs := range st {
			c.SetRelation(db, rs)
		}
	}
	return c, nil
}

// String dumps the catalog deterministically, for tracing and tests.
func (c *Catalog) String() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]Key, 0, len(c.rels))
	for k := range c.rels {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].DB != keys[j].DB {
			return keys[i].DB < keys[j].DB
		}
		return keys[i].Relation < keys[j].Relation
	})
	var b strings.Builder
	for _, k := range keys {
		r := c.rels[k]
		fmt.Fprintf(&b, "%s.%s: %d rows (%s)\n", k.DB, k.Relation, r.Rows, strings.Join(r.Columns, ", "))
	}
	dbs := make([]string, 0, len(c.lat))
	for db := range c.lat {
		dbs = append(dbs, db)
	}
	sort.Strings(dbs)
	for _, db := range dbs {
		fmt.Fprintf(&b, "%s: latency %v\n", db, c.lat[db])
	}
	return b.String()
}
