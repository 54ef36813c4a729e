// Package vtab serves the mediator's own operational state — sessions and
// their audited statements, plan-cache counters, per-source latency
// estimates and fault counters — as ordinary read-only relations under a
// synthetic LQP named "V$". Operators introspect the running federation
// with polygen queries themselves: the V$ tables join against each other
// and against real federated relations, and the tag calculus applies
// unchanged (every V$ cell carries origin {V$}), so the engine dogfoods its
// own machinery on a new kind of source — small, hot, constantly mutating
// tables.
//
// The eight tables are V$SESSION, V$STMT, V$PLAN_CACHE, V$SOURCE_STATS,
// V$FAULT, V$SHARD, V$STORE and V$MEM; see the specs below (and the schema
// reference table in docs/ARCHITECTURE.md) for their columns.
//
// # Snapshot consistency contract
//
// Each reference to a V$ table in a query materializes an independent
// snapshot at Open/OpenPlan time. The snapshot is taken under the owning
// structure's own synchronization — the mediator's session-table lock and
// each session's trail lock (one acquisition per session, so a session's
// LAST_USED and statement rows agree), the plan cache's atomic counters,
// the statistics catalog's lock, the registry's per-replica state — and is
// immutable afterward: the rows are freshly built tuples owned by the
// snapshot, never aliases of live state. Two references to the same table
// in one query (or in two concurrent queries) may therefore observe
// different counter values; within one snapshot the rows of one owner are
// mutually consistent.
//
// Tables reads its sources through a Bind-installed Sources value: the
// mediator service exists only after the PQP it serves, so polygend builds
// the Tables first (its schemes must be in the PQP's schema), registers it
// as an LQP, and binds the live sources once they all exist. Every source
// is optional; an unbound or nil source contributes no rows.
package vtab

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/rel"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/translate"
)

// SourceName is the reserved local-database name of the virtual tables.
// The '$' keeps it out of the way of real sources (both query front ends
// accept '$' inside identifiers precisely for these names).
const SourceName = "V$"

// Sources are the live structures the virtual tables snapshot. All fields
// are optional: a nil source serves empty (or default) rows, so a Tables
// can be registered before the federation is fully wired and bound later.
type Sources struct {
	// Sessions feeds V$SESSION and V$STMT.
	Sessions *mediator.Service
	// Plans feeds V$PLAN_CACHE.
	Plans *translate.PlanCache
	// Stats returns the current optimizer statistics catalog; it is a
	// closure because pqp.CollectStats replaces the catalog instance.
	// It feeds the LINK_EWMA_US column of V$SOURCE_STATS.
	Stats func() *stats.Catalog
	// Faults is the catalog receiving the federation layer's error/retry/
	// hedge observations (federation.Config.Stats); it feeds V$FAULT.
	// It is typically a different instance from Stats() — the optimizer
	// catalog is replaced wholesale by stats collection, while fault
	// accounting must survive for the life of the process.
	Faults *stats.Catalog
	// Registry feeds the per-replica health and latency-estimator columns
	// of V$SOURCE_STATS and enumerates sources for V$FAULT.
	Registry *federation.Registry
	// Stores enumerates the process's durable stores in name order
	// (store.Each fits directly); it feeds V$STORE. nil when the process
	// hosts no write-ahead-logged database.
	Stores func(fn func(name string, st store.Stats))
	// Memory is the engine's operator memory budget (core.Memory); it
	// feeds V$MEM.
	// nil means unbudgeted execution, contributing no rows.
	Memory *core.Memory
}

// Tables is the synthetic LQP serving the V$ virtual tables. It implements
// lqp.LQP by materializing the requested table into a throwaway
// single-relation catalog.Database and delegating to lqp.Local, so filters,
// projections and pushed-down subplans against V$ tables evaluate exactly
// like against any other local source.
type Tables struct {
	mu  sync.RWMutex
	src Sources
}

// New returns an unbound Tables (every virtual table empty until Bind).
func New() *Tables { return &Tables{} }

// Bind installs the live sources. It may be called again to rebind (the
// mediator wires it once at startup); snapshots in flight keep the sources
// they started with.
func (v *Tables) Bind(s Sources) {
	v.mu.Lock()
	v.src = s
	v.mu.Unlock()
}

func (v *Tables) sources() Sources {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.src
}

// tableSpec declares one virtual table: its columns in schema order and the
// builder that snapshots its rows from the bound sources.
type tableSpec struct {
	name    string
	columns []string
	build   func(s Sources) []rel.Tuple
}

// specs lists the virtual tables in the order Relations reports them.
var specs = []tableSpec{
	{
		name: "V$SESSION",
		// QUERIES/ERRORS/CACHE_HITS count over the retained audit-trail
		// window (Config.TrailLimit), not the session's whole life.
		columns: []string{"SID", "CREATED", "LAST_USED", "QUERIES", "ERRORS", "CACHE_HITS", "POLICY"},
		build:   buildSessions,
	},
	{
		name: "V$STMT",
		// One row per retained audit-trail entry; SEQ numbers entries
		// within the retained window, STMT_ID is SID#SEQ.
		columns: []string{"STMT_ID", "SID", "SEQ", "STARTED", "KIND", "STMT_TEXT", "DURATION_US", "ROWS", "CACHE_HIT", "MISSING", "ERROR"},
		build:   buildStmts,
	},
	{
		name:    "V$PLAN_CACHE",
		columns: []string{"CACHE", "CAPACITY", "ENTRIES", "HITS", "MISSES", "EVICTIONS"},
		build:   buildPlanCache,
	},
	{
		name: "V$SOURCE_STATS",
		// One row per registry replica, plus one replica-less row for each
		// source known only to the statistics catalog's latency table.
		columns: []string{"SOURCE", "REPLICA", "HEALTHY", "BREAKER_OPEN", "CALLS", "MEAN_US", "P95_US", "LINK_EWMA_US", "LAST_ERROR"},
		build:   buildSourceStats,
	},
	{
		name:    "V$FAULT",
		columns: []string{"SOURCE", "ERRORS", "RETRIES", "HEDGES"},
		build:   buildFaults,
	},
	{
		name: "V$SHARD",
		// One row per (shard, replica) of every sharded source: where each
		// horizontal partition lives and how many rows it has served into
		// gathered answers (ROWS is per shard, repeated across its replicas).
		columns: []string{"SOURCE", "SHARD", "SHARDS", "REPLICA", "HEALTHY", "ROWS"},
		build:   buildShards,
	},
	{
		name: "V$STORE",
		// One row per durable store hosted by this process: write-ahead-log
		// generation and size, append/sync/compaction counters, what
		// recovery replayed and truncated at boot, and whether a log
		// failure has latched the store read-only.
		columns: []string{"STORE", "DIR", "GENERATION", "APPENDS", "APPENDED_BYTES", "SYNCS", "COMPACTIONS", "REPLAY_RECORDS", "REPLAY_BYTES", "TRUNCATED_BYTES", "LOG_BYTES", "BROKEN"},
		build:   buildStores,
	},
	{
		name: "V$MEM",
		// One row when a memory budget is configured: the per-operator
		// budget and how many operator builds it has refused.
		columns: []string{"BUDGET_BYTES", "REFUSED"},
		build:   buildMem,
	},
}

func findSpec(name string) (tableSpec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return tableSpec{}, false
}

// TableNames lists the virtual table names in declaration order.
func TableNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

func fmtTime(t time.Time) rel.Value {
	return rel.String(t.UTC().Format(time.RFC3339Nano))
}

func buildSessions(s Sources) []rel.Tuple {
	if s.Sessions == nil {
		return nil
	}
	sessions := s.Sessions.Sessions()
	out := make([]rel.Tuple, 0, len(sessions))
	for _, sess := range sessions {
		lastUsed, trail := sess.Snapshot()
		var errs, hits int64
		for _, e := range trail {
			if e.Err != "" {
				errs++
			}
			if e.CacheHit {
				hits++
			}
		}
		out = append(out, rel.Tuple{
			rel.String(sess.ID),
			fmtTime(sess.Created),
			fmtTime(lastUsed),
			rel.Int(int64(len(trail))),
			rel.Int(errs),
			rel.Int(hits),
			rel.String(sess.Policy().String()),
		})
	}
	return out
}

func buildStmts(s Sources) []rel.Tuple {
	if s.Sessions == nil {
		return nil
	}
	var out []rel.Tuple
	for _, sess := range s.Sessions.Sessions() {
		_, trail := sess.Snapshot()
		for i, e := range trail {
			kind := "sql"
			if e.Algebraic {
				kind = "algebra"
			}
			out = append(out, rel.Tuple{
				rel.String(fmt.Sprintf("%s#%d", sess.ID, i)),
				rel.String(sess.ID),
				rel.Int(int64(i)),
				fmtTime(e.When),
				rel.String(kind),
				rel.String(e.Text),
				rel.Int(e.Duration.Microseconds()),
				rel.Int(int64(e.Rows)),
				rel.Bool(e.CacheHit),
				rel.String(strings.Join(e.Missing, ",")),
				rel.String(e.Err),
			})
		}
	}
	return out
}

func buildPlanCache(s Sources) []rel.Tuple {
	if s.Plans == nil {
		return nil
	}
	st := s.Plans.Stats()
	return []rel.Tuple{{
		rel.String("plans"),
		rel.Int(int64(s.Plans.Cap())),
		rel.Int(int64(st.Entries)),
		rel.Int(int64(st.Hits)),
		rel.Int(int64(st.Misses)),
		rel.Int(int64(st.Evictions)),
	}}
}

func buildSourceStats(s Sources) []rel.Tuple {
	var lat map[string]time.Duration
	if s.Stats != nil {
		if c := s.Stats(); c != nil {
			lat = c.Latencies()
		}
	}
	var out []rel.Tuple
	seen := make(map[string]bool)
	if s.Registry != nil {
		for _, h := range s.Registry.Health() {
			seen[h.Source] = true
			out = append(out, rel.Tuple{
				rel.String(h.Source),
				rel.String(h.Replica),
				rel.Bool(h.Healthy),
				rel.Bool(h.BreakerOpen),
				rel.Int(h.Calls),
				rel.Int(h.MeanLatency.Microseconds()),
				rel.Int(h.P95.Microseconds()),
				rel.Int(lat[h.Source].Microseconds()),
				rel.String(h.LastError),
			})
		}
	}
	for db, d := range lat {
		if seen[db] {
			continue
		}
		// Sources the federation layer does not manage (plain in-process
		// LQPs, the V$ source itself) still have observed link latencies.
		out = append(out, rel.Tuple{
			rel.String(db), rel.String(""), rel.Bool(true), rel.Bool(false),
			rel.Int(0), rel.Int(0), rel.Int(0), rel.Int(d.Microseconds()), rel.String(""),
		})
	}
	sortTuples(out)
	return out
}

func buildFaults(s Sources) []rel.Tuple {
	var faults map[string]stats.FaultCounters
	if s.Faults != nil {
		faults = s.Faults.AllFaults()
	}
	names := make(map[string]bool, len(faults))
	for db := range faults {
		names[db] = true
	}
	if s.Registry != nil {
		// Sources that never faulted still get a zero row, so the table
		// enumerates the federation.
		for _, h := range s.Registry.Health() {
			names[h.Source] = true
		}
	}
	out := make([]rel.Tuple, 0, len(names))
	for db := range names {
		fc := faults[db]
		out = append(out, rel.Tuple{
			rel.String(db),
			rel.Int(fc.Errors),
			rel.Int(fc.Retries),
			rel.Int(fc.Hedges),
		})
	}
	sortTuples(out)
	return out
}

func buildShards(s Sources) []rel.Tuple {
	if s.Registry == nil {
		return nil
	}
	infos := s.Registry.Shards()
	out := make([]rel.Tuple, 0, len(infos))
	for _, si := range infos {
		out = append(out, rel.Tuple{
			rel.String(si.Source),
			rel.Int(int64(si.Shard)),
			rel.Int(int64(si.Shards)),
			rel.String(si.Replica),
			rel.Bool(si.Healthy),
			rel.Int(si.Rows),
		})
	}
	sortTuples(out)
	return out
}

func buildStores(s Sources) []rel.Tuple {
	if s.Stores == nil {
		return nil
	}
	var out []rel.Tuple
	s.Stores(func(name string, st store.Stats) {
		out = append(out, rel.Tuple{
			rel.String(name),
			rel.String(st.Dir),
			rel.Int(st.Generation),
			rel.Int(st.Appends),
			rel.Int(st.AppendedBytes),
			rel.Int(st.Syncs),
			rel.Int(st.Compactions),
			rel.Int(st.ReplayRecords),
			rel.Int(st.ReplayBytes),
			rel.Int(st.TruncatedBytes),
			rel.Int(st.LogBytes),
			rel.Bool(st.Broken),
		})
	})
	return out
}

func buildMem(s Sources) []rel.Tuple {
	m := s.Memory
	if m == nil || m.Budget <= 0 {
		return nil
	}
	return []rel.Tuple{{rel.Int(m.Budget), rel.Int(m.Refused.Load())}}
}

// sortTuples orders snapshot rows by their rendered cells, so tables whose
// builders iterate maps come out deterministic.
func sortTuples(ts []rel.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
}

// snapshot materializes one virtual table into a throwaway single-relation
// database. The database is private to this call and immutable once built,
// so lqp.Local's zero-copy View path is safe on top of it.
func (v *Tables) snapshot(table string) (*catalog.Database, error) {
	sp, ok := findSpec(table)
	if !ok {
		return nil, fmt.Errorf("vtab: no virtual table %q", table)
	}
	db := catalog.NewDatabase(SourceName)
	db.MustCreate(sp.name, rel.SchemaOf(sp.columns...))
	if rows := sp.build(v.sources()); len(rows) > 0 {
		if err := db.Insert(sp.name, rows...); err != nil {
			return nil, fmt.Errorf("vtab: building %s: %w", sp.name, err)
		}
	}
	return db, nil
}

// Name implements lqp.LQP.
func (v *Tables) Name() string { return SourceName }

// Relations implements lqp.LQP.
func (v *Tables) Relations() ([]string, error) { return TableNames(), nil }

// Open implements lqp.LQP: one operation is the one-step plan.
func (v *Tables) Open(op lqp.Op) (rel.Cursor, error) { return v.OpenPlan(lqp.PlanOf(op)) }

// OpenPlan implements lqp.LQP: the plan streams over the immutable
// snapshot taken here, never over live state.
func (v *Tables) OpenPlan(p lqp.Plan) (rel.Cursor, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	db, err := v.snapshot(p.Relation())
	if err != nil {
		return nil, err
	}
	return lqp.NewLocal(db).OpenPlan(p)
}

// Stats implements lqp.LQP: one fresh snapshot per table. The
// cardinalities are as volatile as the underlying counters; like every
// statistic they only influence plan choice, never results.
func (v *Tables) Stats() ([]lqp.RelationStats, error) {
	s := v.sources()
	out := make([]lqp.RelationStats, len(specs))
	for i, sp := range specs {
		out[i] = lqp.RelationStats{
			Name:    sp.name,
			Rows:    len(sp.build(s)),
			Columns: append([]string(nil), sp.columns...),
		}
	}
	return out, nil
}

var _ lqp.LQP = (*Tables)(nil)

// Schemes returns the polygen schemes of the virtual tables: one
// single-source scheme per table, every attribute mapping 1:1 to the V$
// local attribute of the same name (the same shape the star workload uses
// for its single-source schemes). The scheme key is the first column.
func Schemes() []*core.Scheme {
	out := make([]*core.Scheme, 0, len(specs))
	for _, sp := range specs {
		attrs := make([]core.PolygenAttr, len(sp.columns))
		for i, col := range sp.columns {
			attrs[i] = core.PolygenAttr{
				Name:    col,
				Mapping: []core.LocalAttr{{DB: SourceName, Scheme: sp.name, Attr: col}},
			}
		}
		out = append(out, &core.Scheme{Name: sp.name, Attrs: attrs, Key: sp.columns[0]})
	}
	return out
}

// AugmentSchema returns base's polygen schema extended with the V$ schemes,
// sharing base's domain-map table (V$ attributes have no domain mappings,
// so lookups fall through to identity). The base schema is not modified.
func AugmentSchema(base *core.Schema) (*core.Schema, error) {
	var all []*core.Scheme
	for _, name := range base.SchemeNames() {
		if _, clash := findSpec(name); clash {
			return nil, fmt.Errorf("vtab: schema already defines reserved scheme %q", name)
		}
		p, ok := base.Scheme(name)
		if !ok {
			return nil, fmt.Errorf("vtab: schema lists unknown scheme %q", name)
		}
		all = append(all, p)
	}
	all = append(all, Schemes()...)
	out, err := core.NewSchema(all...)
	if err != nil {
		return nil, fmt.Errorf("vtab: augmenting schema: %w", err)
	}
	out.DomainMap = base.DomainMap
	return out, nil
}
