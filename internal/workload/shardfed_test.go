package workload

// The sharded scatter-gather property suite: one logical source partitioned
// across N shard slices must be indistinguishable from the single-copy
// source — cell-for-cell AND tag-for-tag — on every engine leg. The suite
// runs the star query battery at shard counts {1, 2, 4, 7} across four legs
// (optimized/reference × streaming/materialized, so pushed-down plans
// scatter too), repeats it with every shard behind real TCP lqpd servers,
// and then composes sharding with the chaos machinery: the fault scenario ×
// seed matrix of the replicated suite, and whole-source outages under both
// degrade policies.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/pqp"
	"repro/internal/wire"
)

// shardPropCounts is the pinned shard-count matrix, prime and power-of-two
// alike so placement imbalance and single-shard degeneracy both run.
var shardPropCounts = []int{1, 2, 4, 7}

// shardPropQueries stresses the scatter differently per shape: a pushable
// non-key select chain (every shard contributes), a key-equality select
// (prunes to one shard), and two join orders whose fan-out opens every
// source.
var shardPropQueries = []string{
	`((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`,
	`(PFACT [FK = "F0000012"]) [FK, CAT, VAL]`,
	`(((PFACT [MK = MK] PMID) [DK = DK] (PDIM [DCAT = "dcat0"])) [VAL, DCAT, GRADE])`,
	`(((PFACT [DK = DK] PDIM) [MK = MK] PMID) [VAL, DCAT, GRADE])`,
}

// newShardPQP wires a PQP over a sharded star and collects statistics, so
// the optimizer's cost-based passes (and the ShardedSource's placement-key
// priming) are live.
func newShardPQP(t *testing.T, cfg ShardedStarConfig) (*pqp.PQP, *ShardedStar) {
	t.Helper()
	ss := NewShardedStar(cfg)
	q := pqp.New(ss.Star.Schema, ss.Star.Registry, nil, ss.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatalf("CollectStats over %s: %v", cfg, err)
	}
	return q, ss
}

// shardBaselines answers the battery on the plain single-copy star — the
// ground truth every sharded leg is compared against.
func shardBaselines(t *testing.T) [][]string {
	t.Helper()
	star := NewStar(faultStarConfig())
	q := pqp.New(star.Schema, star.Registry, nil, star.LQPs())
	out := make([][]string, len(shardPropQueries))
	for i, query := range shardPropQueries {
		res, err := q.QueryAlgebra(query)
		if err != nil {
			t.Fatalf("baseline %q: %v", query, err)
		}
		if res.Relation.Cardinality() == 0 {
			t.Fatalf("baseline %q is empty; the property would be vacuous", query)
		}
		out[i] = renderTagged(res.Relation)
	}
	return out
}

// runShardLegs answers one query on all four engine legs and compares each
// against the unsharded baseline.
func runShardLegs(t *testing.T, q *pqp.PQP, query string, want []string) {
	t.Helper()
	legs := map[string][]string{}
	for _, optimize := range []bool{true, false} {
		q.Optimize = optimize
		label := "reference"
		if optimize {
			label = "optimized"
		}
		res, err := q.QueryAlgebra(query)
		if err != nil {
			t.Fatalf("%s streaming %q: %v", label, query, err)
		}
		legs[label+"-streaming"] = renderTagged(res.Relation)
		mat, err := q.ExecuteMaterialized(res.Plan)
		if err != nil {
			t.Fatalf("%s materialized %q: %v", label, query, err)
		}
		legs[label+"-materialized"] = renderTagged(mat)
	}
	for leg, got := range legs {
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s diverges from the unsharded answer on %q\n got (%d rows):\n  %s\nwant (%d rows):\n  %s",
				leg, query, len(got), strings.Join(got, "\n  "), len(want), strings.Join(want, "\n  "))
		}
	}
}

// TestShardedPropertySuite is the core property: at every shard count, on
// every engine leg, the sharded federation answers exactly like the
// single-copy star — same cells, same tags, pushed plans included.
func TestShardedPropertySuite(t *testing.T) {
	baselines := shardBaselines(t)
	for _, shards := range shardPropCounts {
		cfg := ShardedStarConfig{
			Fault:  FaultConfig{Star: faultStarConfig(), Replicas: 1, Federation: faultFedConfig(1)},
			Shards: shards,
		}
		t.Run(cfg.String(), func(t *testing.T) {
			q, _ := newShardPQP(t, cfg)
			for i, query := range shardPropQueries {
				runShardLegs(t, q, query, baselines[i])
			}
		})
	}
}

// TestShardedPruningServesFewerRows: after statistics priming, the
// key-equality select touches one shard — the other shards' row meters do
// not move: each daemon serves only its slice.
func TestShardedPruningServesFewerRows(t *testing.T) {
	cfg := ShardedStarConfig{
		Fault:  FaultConfig{Star: faultStarConfig(), Replicas: 1, Federation: faultFedConfig(1)},
		Shards: 4,
	}
	q, ss := newShardPQP(t, cfg)
	fd := ss.Sharded["FD"]
	before := make([]int64, fd.ShardCount())
	for i := range before {
		before[i] = fd.RowsServed(i)
	}
	if _, err := q.QueryAlgebra(shardPropQueries[1]); err != nil {
		t.Fatal(err)
	}
	touched := 0
	for i := range before {
		if fd.RowsServed(i) > before[i] {
			touched++
		}
	}
	if touched > 1 {
		t.Errorf("key-equality select touched %d shards, want at most 1", touched)
	}
}

// TestShardedOverWire runs the battery with every shard slice behind its
// own TCP server — the deployment shape of lqpd -shard i/N — and demands
// the same answers as the in-process single-copy star.
func TestShardedOverWire(t *testing.T) {
	baselines := shardBaselines(t)
	star := NewStar(faultStarConfig())
	const shards = 3
	reg := federation.NewRegistry(faultFedConfig(1))
	for _, db := range star.Databases() {
		groups := make([][]lqp.LQP, shards)
		for i := 0; i < shards; i++ {
			slice, err := federation.Slice(db, i, shards)
			if err != nil {
				t.Fatalf("Slice(%s, %d): %v", db.Name(), i, err)
			}
			srv := wire.NewServer(slice)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			t.Cleanup(func() { srv.Close() })
			c, err := wire.Dial(addr)
			if err != nil {
				t.Fatalf("Dial %s: %v", addr, err)
			}
			t.Cleanup(func() { c.Close() })
			groups[i] = []lqp.LQP{c}
		}
		src := reg.AddSharded(db.Name(), groups...)
		src.SetShardKeys(federation.NewShardMap(db, shards).Keys)
	}
	q := pqp.New(star.Schema, star.Registry, nil, reg.LQPs())
	if err := q.CollectStats(); err != nil {
		t.Fatalf("CollectStats over the wire: %v", err)
	}
	for i, query := range shardPropQueries {
		runShardLegs(t, q, query, baselines[i])
	}
}

// TestShardedFaultMatrix composes sharding with the chaos suite: replica 0
// of every shard misbehaves per scenario, across the pinned seed matrix.
// Every answer is identical to the fault-free baseline or a typed
// ExhaustedError naming a logical source — never a silent partial gather,
// never an unbounded stall.
func TestShardedFaultMatrix(t *testing.T) {
	baselines := shardBaselines(t)
	scenarios := []FaultScenario{ScenarioKilled, ScenarioHung, ScenarioSlow, ScenarioCut}
	logical := map[string]bool{"FD": true, "DD": true, "MD": true}
	for _, scenario := range scenarios {
		for _, seed := range faultSeeds {
			cfg := ShardedStarConfig{
				Fault: FaultConfig{
					Star:       faultStarConfig(),
					Scenario:   scenario,
					Seed:       seed,
					Replicas:   2,
					Latency:    5 * time.Millisecond,
					Hang:       2 * time.Second,
					Federation: faultFedConfig(seed),
				},
				Shards: 3,
			}
			t.Run(cfg.String(), func(t *testing.T) {
				q, ss := newShardPQP(t, cfg)
				for i, query := range shardPropQueries {
					start := time.Now()
					res, err := q.QueryAlgebra(query)
					elapsed := time.Since(start)
					if budget := 10 * cfg.Fault.Federation.CallTimeout; elapsed > budget {
						t.Errorf("%q took %v, budget %v — a faulty shard replica stalled the query", query, elapsed, budget)
					}
					if err != nil {
						var ex *federation.ExhaustedError
						if !errors.As(err, &ex) {
							t.Errorf("%q failed untyped: %v", query, err)
						} else if !logical[ex.Source] {
							t.Errorf("%q: ExhaustedError names %q, want a logical source", query, ex.Source)
						}
						continue
					}
					if got := renderTagged(res.Relation); strings.Join(got, "\n") != strings.Join(baselines[i], "\n") {
						t.Errorf("%q differs from the fault-free run\n got (%d rows):\n  %s\nwant (%d rows):\n  %s",
							query, len(got), strings.Join(got, "\n  "), len(baselines[i]), strings.Join(baselines[i], "\n  "))
					}
				}
				if errs, hangs, slows, cuts := ss.InjectedFaults(); errs+hangs+slows+cuts == 0 {
					t.Errorf("scenario %s injected nothing — the suite tested a healthy federation", scenario)
				}
			})
		}
	}
}

// TestShardedDegradePolicies: with every replica of every MD shard dead,
// the fail policy refuses with a typed error naming the logical source, and
// the partial policy drops the whole logical leg — diagnostics name MD, no
// surviving cell carries an MD tag, and a query never touching MD answers
// fully.
func TestShardedDegradePolicies(t *testing.T) {
	cfg := ShardedStarConfig{
		Fault: FaultConfig{
			Star:       faultStarConfig(),
			DeadSource: "MD",
			Seed:       1,
			Replicas:   2,
			Federation: faultFedConfig(1),
		},
		Shards: 3,
	}
	// No CollectStats here: statistics collection itself scatters to the
	// dead MD shards and would (correctly) fail before the property runs.
	buildDead := func() *pqp.PQP {
		ss := NewShardedStar(cfg)
		return pqp.New(ss.Star.Schema, ss.Star.Registry, nil, ss.LQPs())
	}
	q := buildDead()
	_, err := q.QueryAlgebra(shardPropQueries[2]) // joins PMID — must touch MD
	if err == nil {
		t.Fatal("query over a dead sharded source succeeded under the fail policy")
	}
	var ex *federation.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error is not an ExhaustedError: %v", err)
	}
	if ex.Source != "MD" {
		t.Errorf("ExhaustedError names %q, want the logical source MD", ex.Source)
	}

	q = buildDead()
	q.Degrade = federation.PolicyPartial
	res, err := q.QueryAlgebra(shardPropQueries[0]) // FD-only
	if err != nil {
		t.Fatalf("partial policy failed a query that never touches the dead source: %v", err)
	}
	if res.Relation.Cardinality() == 0 {
		t.Fatal("FD-only query answered empty")
	}
	if rep := res.Diag.Report(); rep.Degraded() {
		t.Errorf("FD-only answer reports degradation: %+v", rep)
	}
	res, err = q.QueryAlgebra(shardPropQueries[2])
	if err != nil {
		t.Fatalf("partial policy did not degrade: %v", err)
	}
	rep := res.Diag.Report()
	if !rep.Degraded() || len(rep.Missing) != 1 || rep.Missing[0] != "MD" {
		t.Fatalf("diagnostics = %+v, want Missing=[MD]", rep)
	}
	for _, tu := range res.Relation.Tuples {
		for _, c := range tu {
			if strings.Contains(c.Format(res.Relation.Reg), "MD") {
				t.Fatalf("surviving cell tagged with the dead source: %s", c.Format(res.Relation.Reg))
			}
		}
	}
}
