// Package pqp implements the Polygen Query Processor of the paper's Figure
// 1: it translates polygen queries into Intermediate Operation Matrices
// (delegating to package translate), routes the local rows to the Local
// Query Processors, tags retrieved data with their originating sources, and
// evaluates the PQP-resident polygen operations with the polygen algebra,
// maintaining data and intermediate source tags throughout.
//
// One engine evaluates plans: the plan is compiled into a tree of cursors
// (stream.go) through which row batches flow, so peak memory is bounded by
// the batches in flight plus the registers that must materialize (those
// consumed more than once, and the blocking points of
// Project/Union/Intersect/Merge), and remote LQP retrieval overlaps with
// PQP-side operator work via per-stream prefetch. Execute and Open run the
// compiled tree streaming; ExecuteAll and ExecuteMaterialized run the same
// compiler with every register retained, for callers that want each
// intermediate relation. The string-keyed core.Ref* operators are the one
// oracle the engine is tested against.
//
// The engine runs the hash-native algebra: tuple identity is a 64-bit hash
// and join probes intern canonical IDs through the PQP's resolver. One PQP
// keeps one Algebra — and therefore one resolver intern table — across
// queries, so canonical IDs warm up once per federation rather than once
// per query.
//
// Before execution, Run hands the IOM to the cost-based Query Optimizer
// (translate.OptimizeWithOptions) with the federation knowledge the PQP
// holds: the polygen schema, which databases have an LQP to push to, the
// instance resolver's exactness, and — after CollectStats — per-LQP
// cardinality and latency statistics (internal/stats). Optimized plans may
// carry pushed-down subplans on their LQP-resident rows; the engine
// executes those through the LQP's OpenPlan and reconstructs the
// intermediate tags the displaced PQP-side filters would have written, so
// optimized and unoptimized plans agree cell for cell — data and both tag
// sets — which the property suite in opt_test.go enforces. See
// docs/ARCHITECTURE.md for the optimizer's full contract.
package pqp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
	"repro/internal/stats"
	"repro/internal/translate"
)

// PQP is a polygen query processor bound to a polygen schema and a set of
// LQPs (one per local database).
type PQP struct {
	// id is a process-unique planner identity (see planKey): plans depend
	// on everything a PQP is wired with — schema, LQP set, resolver — none
	// of which change after New, so the instance ID is the sound cache
	// fingerprint for all of them (an address would not be:
	// a successor's allocation can reuse a freed predecessor's).
	id     uint64
	schema *core.Schema
	reg    *sourceset.Registry
	alg    *core.Algebra
	lqps   map[string]lqp.LQP
	// Optimize enables the Query Optimizer stage (Figure 2). It defaults to
	// true; the optimizer ablation benchmarks turn it off. The optimizer
	// runs the cost-based federated passes of translate.OptimizeWithOptions:
	// pushdown of PQP-resident selections/projections into LQPs that accept
	// subplans, projection narrowing, and — when Stats is set and the
	// instance resolver is exact — greedy join reordering.
	Optimize bool
	// Stats, when non-nil, feeds the optimizer per-LQP cardinality and
	// column statistics (projection-narrowing width checks, join ordering).
	// CollectStats populates it from the LQPs' Stats;
	// executing queries does not update it, so its version — part of the
	// plan-cache key — moves only when statistics are deliberately
	// recollected or set.
	Stats *stats.Catalog
	// RelaxedJoinReorder lets the optimizer pick join orders whose
	// intermediate tags differ from the unoptimized plan's (the polygen tag
	// calculus records evaluation order; see translate.Options). Data and
	// origin tags are unaffected. Off by default.
	RelaxedJoinReorder bool
	// Degrade is the default degradation policy for queries run without an
	// explicit one (RunPolicy/OpenPolicy override per call). PolicyFail —
	// the zero value — fails the whole query when a source exhausts all of
	// its replicas; PolicyPartial drops the exhausted scatter leg and
	// answers from the sources that remain, with the missing sources named
	// in the result's diagnostics. Only federation-backed LQPs
	// (internal/federation.Source) ever produce the typed exhaustion the
	// policy dispatches on; with plain LQPs both policies behave like
	// PolicyFail.
	Degrade federation.Policy
	// Plans caches translated, optimized plans keyed by canonical query
	// text, schema, statistics version and optimizer options, so a shared
	// long-lived PQP runs the translation pipeline — including the
	// optimizer's join-order search — once per distinct query instead of
	// once per request. New installs a DefaultPlanCacheSize cache; set nil
	// to translate every request from scratch.
	Plans *translate.PlanCache
	// Trace, when non-nil, receives one line per executed IOM row.
	Trace func(format string, args ...any)
}

// The flag fields above (Optimize, Stats, RelaxedJoinReorder, Degrade,
// Plans, Trace) are configuration: set them while wiring the federation,
// before the PQP is shared. After that one PQP instance serves any number of
// goroutines concurrently — QuerySQL, QueryAlgebra, Run and Open are safe
// for concurrent use. Everything mutable underneath is either query-private
// (relations, cursor trees, register maps) or independently synchronized:
// the sourceset.Registry and stats.Catalog lock internally, the resolver's
// canonical-ID interner publishes through an atomic snapshot, and the plan
// cache locks around its LRU. The property suite in concurrent_test.go
// holds a shared instance to cell-for-cell serial equivalence under -race.

// New builds a PQP. resolver may be nil for exact instance matching; the
// paper's worked example needs identity.CaseFold to match "CitiCorp" with
// "Citicorp".
func New(schema *core.Schema, reg *sourceset.Registry, resolver identity.Resolver, lqps map[string]lqp.LQP) *PQP {
	return &PQP{
		id:       nextPQPID.Add(1),
		schema:   schema,
		reg:      reg,
		alg:      core.NewAlgebra(resolver),
		lqps:     lqps,
		Optimize: true,
		Plans:    translate.NewPlanCache(0),
	}
}

// SetMemoryBudget caps, per operator, the blocking tuple state of the hash
// operators this PQP runs (Project, Union, Difference and the equi-Join
// build): an operator whose resident state passes budget bytes refuses, and
// its query fails with core.ErrOverBudget. Nothing spills to disk. budget
// <= 0 removes the bound. Like the flag fields, this is wiring-time
// configuration: call it before the PQP is shared across goroutines.
func (q *PQP) SetMemoryBudget(budget int64) {
	if budget <= 0 {
		q.alg.SetMemory(nil)
		return
	}
	q.alg.SetMemory(&core.Memory{Budget: budget})
}

// MemoryConfig returns the PQP's memory budget, nil if none — the
// observability layer reads its refusal counter into V$MEM and /metrics.
func (q *PQP) MemoryConfig() *core.Memory { return q.alg.Memory() }

// nextPQPID hands out process-unique planner IDs.
var nextPQPID atomic.Uint64

// Algebra exposes the algebra evaluator (e.g. to install a conflict
// handler).
func (q *PQP) Algebra() *core.Algebra { return q.alg }

// CollectStats probes every LQP's Stats and installs the resulting catalog
// as the PQP's optimizer statistics. With remote LQPs the probe is one "stats" wire
// round trip per database; the measured round-trip time seeds the link
// latency estimates.
func (q *PQP) CollectStats() error {
	c, err := stats.Collect(q.lqps)
	if err != nil {
		return err
	}
	q.Stats = c
	return nil
}

// optimizerOptions assembles the federation knowledge the cost-based
// optimizer needs: the schema (attribute and domain mappings), the
// statistics catalog, which databases accept pushed plans, and whether the
// executing algebra resolves instances exactly.
func (q *PQP) optimizerOptions() translate.Options {
	return translate.Options{
		Schema: q.schema,
		Stats:  q.Stats,
		CanPush: func(db string) bool {
			_, ok := q.lqps[db]
			return ok
		},
		ExactResolver:      q.alg.ResolverIsExact(),
		RelaxedJoinReorder: q.RelaxedJoinReorder,
	}
}

// Registry returns the source registry shared by all results.
func (q *PQP) Registry() *sourceset.Registry { return q.reg }

// Schema returns the polygen schema.
func (q *PQP) Schema() *core.Schema { return q.schema }

// Result is a fully processed polygen query: every intermediate artifact of
// Figure 2's pipeline plus the final polygen relation.
type Result struct {
	// Expr is the polygen algebraic expression.
	Expr translate.Expr
	// POM is the Polygen Operation Matrix (Syntax Analyzer output).
	POM *translate.Matrix
	// Half is the half-processed IOM (pass one output).
	Half *translate.Matrix
	// IOM is the Intermediate Operation Matrix (pass two output).
	IOM *translate.Matrix
	// Plan is the executed plan: the IOM after the Query Optimizer.
	Plan *translate.Matrix
	// CacheHit reports that the matrices came from the plan cache — the
	// translation pipeline and the optimizer did not run for this request.
	CacheHit bool
	// Relation is the composite answer with source tags.
	Relation *core.Relation
	// Diag is the query's fault-handling collector: retries, hedges,
	// replicas used and — under PolicyPartial — the sources that went
	// missing. Run/RunPolicy results carry the completed record; for
	// Open/OpenPolicy the collector keeps accumulating while the answer
	// streams (mid-stream failovers), so snapshot it with Diag.Report()
	// after draining. Nil for results produced before execution.
	Diag *federation.Diagnostics
}

// PlanLines renders the executed plan one row per line — what the shell and
// the mediator protocol show as "the plan" without shipping matrices.
func (r *Result) PlanLines() []string {
	if r == nil || r.Plan == nil {
		return nil
	}
	lines := make([]string, len(r.Plan.Rows))
	for i, row := range r.Plan.Rows {
		lines[i] = row.String()
	}
	return lines
}

// QueryAlgebra runs a polygen algebraic expression (paper notation) through
// the full pipeline: parse → POM → pass one → pass two → optimize → execute.
func (q *PQP) QueryAlgebra(input string) (*Result, error) {
	e, err := translate.ParseExpr(input)
	if err != nil {
		return nil, err
	}
	return q.Run(e)
}

// QuerySQL runs a polygen SQL query through the SQL front end and the full
// pipeline.
func (q *PQP) QuerySQL(input string) (*Result, error) {
	e, err := translate.CompileSQL(input, q.schema)
	if err != nil {
		return nil, err
	}
	return q.Run(e)
}

// Run executes an already-built algebraic expression under the PQP's
// default degradation policy.
func (q *PQP) Run(e translate.Expr) (*Result, error) { return q.RunPolicy(e, q.Degrade) }

// RunPolicy is Run with an explicit per-query degradation policy — the
// mediator routes each session's policy through it.
func (q *PQP) RunPolicy(e translate.Expr, policy federation.Policy) (*Result, error) {
	res, err := q.plan(e)
	if err != nil {
		return nil, err
	}
	env := execEnv{policy: policy, diag: federation.NewDiagnostics()}
	if res.Relation, err = q.execute(res.Plan, env); err != nil {
		return nil, err
	}
	res.Diag = env.diag
	return res, nil
}

// execEnv is the per-query execution environment threaded through the
// engines: the degradation policy and the diagnostics collector every
// federation-backed LQP call reports into. The zero value (PolicyFail, no
// collector) is the behavior of the plain public entry points.
type execEnv struct {
	policy federation.Policy
	diag   *federation.Diagnostics
}

// boundLQP returns the diagnostics-bound view of l when the environment
// collects and l is federation-backed; otherwise l itself.
func (q *PQP) boundLQP(l lqp.LQP, env execEnv) lqp.LQP {
	if env.diag == nil {
		return l
	}
	if c, ok := l.(federation.Collectable); ok {
		return c.Bind(env.diag)
	}
	return l
}

// degrade decides what becomes of a failed local operation: under
// PolicyPartial an exhausted source (every replica tried, none answered)
// turns into an empty relation with the columns the operation would have
// produced — the dropped scatter leg — and a diagnostics entry; any other
// failure, or any failure under PolicyFail, stays fatal.
func (q *PQP) degrade(row translate.Row, plan lqp.Plan, env execEnv, cause error) (*rel.Relation, error) {
	var ex *federation.ExhaustedError
	if env.policy != federation.PolicyPartial || !errors.As(cause, &ex) {
		return nil, cause
	}
	cols, ok := q.degradedColumns(row.EL, plan)
	if !ok {
		return nil, fmt.Errorf("pqp: cannot degrade %s.%s (columns unknown): %w", row.EL, plan.Relation(), cause)
	}
	env.diag.AddMissing(row.EL)
	return rel.NewRelation(plan.Relation(), rel.SchemaOf(cols...)), nil
}

// degradedColumns shapes a dropped scatter leg's empty stand-in: a
// projecting subplan fixes the columns itself; otherwise the statistics
// catalog (populated by CollectStats) or the polygen schema's attribute
// mappings supply the source relation's column list.
func (q *PQP) degradedColumns(db string, plan lqp.Plan) ([]string, bool) {
	for i := len(plan.Ops) - 1; i >= 0; i-- {
		if plan.Ops[i].Kind == lqp.OpProject {
			return plan.Ops[i].Attrs, true
		}
	}
	if q.Stats != nil {
		if cols, ok := q.Stats.Columns(db, plan.Relation()); ok {
			return cols, true
		}
	}
	return q.schema.LocalColumns(db, plan.Relation())
}

// Open runs the translation pipeline for e (through the plan cache) and
// returns the answer as a streaming cursor instead of a materialized
// relation — the mediator's "queryopen" path. The caller owns the cursor
// and must Close it.
func (q *PQP) Open(e translate.Expr) (core.Cursor, *Result, error) {
	return q.OpenPolicy(e, q.Degrade)
}

// OpenPolicy is Open with an explicit per-query degradation policy. The
// returned Result carries the live diagnostics collector (Result.Diag);
// mid-stream failovers keep reporting into it while the cursor drains.
func (q *PQP) OpenPolicy(e translate.Expr, policy federation.Policy) (core.Cursor, *Result, error) {
	res, err := q.plan(e)
	if err != nil {
		return nil, nil, err
	}
	env := execEnv{policy: policy, diag: federation.NewDiagnostics()}
	res.Diag = env.diag
	cur, _, err := q.openPlan(res.Plan, env, false)
	if err != nil {
		return nil, nil, err
	}
	return cur, res, nil
}

// planKey builds the cache key of e under the PQP's current planning
// inputs: the canonical query text, the schema instance, the statistics
// version the optimizer would consult, and the optimizer option
// fingerprint.
func (q *PQP) planKey(e translate.Expr) translate.PlanKey {
	var statsFP string
	if q.Stats != nil {
		// Instance identity + version: a fresh catalog (CollectStats) must
		// miss even if its restarted version counter collides with the old
		// catalog's. The ID is a process-unique monotonic counter, not an
		// address, so a successor catalog reusing the freed one's memory
		// still misses.
		statsFP = fmt.Sprintf("%d:%d", q.Stats.ID(), q.Stats.Version())
	}
	return translate.PlanKey{
		Query: e.String(),
		// The planner ID covers everything fixed at New: schema, the LQP
		// set, the resolver. The mutable flags are fingerprinted
		// separately below.
		Planner: fmt.Sprintf("pqp-%d", q.id),
		Stats:   statsFP,
		Options: fmt.Sprintf("opt=%t relaxed=%t exact=%t",
			q.Optimize, q.RelaxedJoinReorder, q.alg.ResolverIsExact()),
	}
}

// plan runs the translation pipeline for e — parse products through the
// Query Optimizer — consulting the plan cache first. The matrices of a
// cache hit are shared and immutable; execution never mutates a plan.
func (q *PQP) plan(e translate.Expr) (*Result, error) {
	res := &Result{Expr: e}
	var key translate.PlanKey
	if q.Plans != nil {
		key = q.planKey(e)
		if p, ok := q.Plans.Get(key); ok {
			res.POM, res.Half, res.IOM, res.Plan = p.POM, p.Half, p.IOM, p.Plan
			res.CacheHit = true
			return res, nil
		}
	}
	var err error
	if res.POM, err = translate.Analyze(e); err != nil {
		return nil, err
	}
	if res.Half, err = translate.PassOne(res.POM, q.schema); err != nil {
		return nil, err
	}
	if res.IOM, err = translate.PassTwo(res.Half, q.schema); err != nil {
		return nil, err
	}
	res.Plan = res.IOM
	if q.Optimize {
		if res.Plan, err = translate.OptimizeWithOptions(res.IOM, q.optimizerOptions()); err != nil {
			return nil, err
		}
	}
	if q.Plans != nil {
		q.Plans.Put(key, &translate.CachedPlan{POM: res.POM, Half: res.Half, IOM: res.IOM, Plan: res.Plan})
	}
	return res, nil
}

// localPlan builds the local subplan of an LQP-resident row: the row's own
// operation plus any steps the optimizer fused into it.
func localPlan(row translate.Row) (lqp.Plan, error) {
	base, err := localOp(row)
	if err != nil {
		return lqp.Plan{}, err
	}
	return lqp.PlanOf(base, row.Pushed...), nil
}

// localOp builds the local operation an LQP-resident row asks for.
func localOp(row translate.Row) (lqp.Op, error) {
	if row.LHR.Kind != translate.OpdLocal {
		return lqp.Op{}, fmt.Errorf("local row requires a local relation operand, found %s", row.LHR)
	}
	switch row.Op {
	case translate.OpRetrieve:
		return lqp.Retrieve(row.LHR.Name), nil
	case translate.OpSelect:
		if row.RHA.Kind != translate.CmpConst {
			return lqp.Op{}, fmt.Errorf("local Select requires a constant RHA")
		}
		return lqp.Select(row.LHR.Name, row.LHA[0], row.Theta, row.RHA.Const), nil
	case translate.OpRestrict:
		if row.RHA.Kind != translate.CmpAttr {
			return lqp.Op{}, fmt.Errorf("local Restrict requires an attribute RHA")
		}
		return lqp.Restrict(row.LHR.Name, row.LHA[0], row.Theta, row.RHA.Attr), nil
	case translate.OpProject:
		return lqp.Project(row.LHR.Name, row.LHA...), nil
	default:
		return lqp.Op{}, fmt.Errorf("operation %q cannot execute at an LQP", row.Op)
	}
}

// tagPlan computes, for each local column retrieved from db.localScheme,
// the polygen-annotated output attribute and the domain-map function to
// apply before tagging — the static half of the tag cursor.
func (q *PQP) tagPlan(db, localScheme string, names []string) ([]core.Attr, []func(rel.Value) rel.Value) {
	attrs := make([]core.Attr, len(names))
	fns := make([]func(rel.Value) rel.Value, len(names))
	for i, n := range names {
		attrs[i] = core.Attr{Name: n}
		la := core.LocalAttr{DB: db, Scheme: localScheme, Attr: n}
		if sa, ok := q.schema.PolygenAttrOf(la); ok {
			attrs[i].Polygen = sa.Attr
		}
		fns[i] = q.schema.DomainMap.Lookup(db, localScheme, n)
	}
	return attrs, fns
}
