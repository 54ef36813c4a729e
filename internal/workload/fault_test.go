package workload

// The chaos property suite: a replicated star federation where one of three
// replicas per source is killed, hung, slowed or cut mid-stream, across a
// fixed seed matrix. The property under the fail policy is strict — every
// fault-injected answer is cell-for-cell and tag-identical to the fault-free
// run, or the query fails with a typed federation.ExhaustedError naming the
// exhausted source. Under the partial policy a whole-source outage drops the
// leg and the diagnostics name exactly what is missing and who contributed.
// Everything is deterministic per seed (no wall-clock in any fault cadence),
// so CI can run the suite under -race with a pinned matrix (`make chaos`).

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/rel"
)

// faultSeeds is the pinned seed matrix; CI runs every scenario at each seed.
var faultSeeds = []int64{1, 7, 42}

// faultQueries exercises the shapes that stress the fault layer
// differently: a pushed-down select chain (one LQP leg), and two join
// orders whose fan-out opens every source.
var faultQueries = []string{
	`((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`,
	`(((PFACT [MK = MK] PMID) [DK = DK] (PDIM [DCAT = "dcat0"])) [VAL, DCAT, GRADE])`,
	`(((PFACT [DK = DK] PDIM) [MK = MK] PMID) [VAL, DCAT, GRADE])`,
}

// faultStarConfig keeps the data small enough for a scenario × seed × query
// matrix but large enough for multi-batch streams (so mid-stream cuts land
// after rows were already delivered).
func faultStarConfig() StarConfig {
	return StarConfig{Facts: 900, Dims: 20, Mids: 10, Categories: 5, Seed: 11}
}

// faultFedConfig keeps retries tight and deadlines short, so hung replicas
// cost tenths of a second, not the 10s production default.
func faultFedConfig(seed int64) federation.Config {
	return federation.Config{
		CallTimeout: 500 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		HedgeDelay:  -1, // hedging has its own tests; keep call counts exact here
		Seed:        seed,
	}
}

func newFaultPQP(cfg FaultConfig) (*pqp.PQP, *ReplicatedStar) {
	rs := NewReplicatedStar(cfg)
	q := pqp.New(rs.Star.Schema, rs.Star.Registry, nil, rs.LQPs())
	return q, rs
}

// renderTagged renders a tagged relation one sorted line per tuple in the
// paper's "datum, {origins}, {intermediates}" notation — the cell-for-cell,
// tag-for-tag comparison key.
func renderTagged(p *core.Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = c.Format(p.Reg)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	sort.Strings(out)
	return out
}

// TestFaultPropertySuite is the core property: under the fail policy, every
// query against a federation with one faulty replica per source answers
// identically to the fault-free run — the two healthy replicas absorb the
// fault, so no query fails, none returns a silent partial answer and none
// stalls past the deadline budget. (TestFaultExhaustionFailPolicy covers
// the typed error when every replica of a source is dead.)
func TestFaultPropertySuite(t *testing.T) {
	// Fault-free baselines, one per query, behind the same federation layer
	// so only the injected faults differ.
	baseQ, _ := newFaultPQP(FaultConfig{Star: faultStarConfig(), Federation: faultFedConfig(1)})
	baselines := make([][]string, len(faultQueries))
	for i, query := range faultQueries {
		res, err := baseQ.QueryAlgebra(query)
		if err != nil {
			t.Fatalf("baseline %q: %v", query, err)
		}
		if res.Relation.Cardinality() == 0 {
			t.Fatalf("baseline %q is empty; the property would be vacuous", query)
		}
		baselines[i] = renderTagged(res.Relation)
	}

	scenarios := []FaultScenario{ScenarioKilled, ScenarioHung, ScenarioSlow, ScenarioCut}
	for _, scenario := range scenarios {
		for _, seed := range faultSeeds {
			cfg := FaultConfig{
				Star:       faultStarConfig(),
				Scenario:   scenario,
				Seed:       seed,
				Latency:    5 * time.Millisecond,
				Hang:       2 * time.Second,
				Federation: faultFedConfig(seed),
			}
			t.Run(cfg.String(), func(t *testing.T) {
				q, rs := newFaultPQP(cfg)
				for i, query := range faultQueries {
					start := time.Now()
					res, err := q.QueryAlgebra(query)
					elapsed := time.Since(start)
					// A faulty replica may cost deadlines and retries, but
					// must never stall a query unboundedly: a generous
					// multiple of the per-call deadline bounds the worst
					// case (several sequential legs, each timing out once).
					if budget := 10 * cfg.Federation.CallTimeout; elapsed > budget {
						t.Errorf("%q took %v, budget %v — a faulty replica stalled the query", query, elapsed, budget)
					}
					if err != nil {
						t.Errorf("%q failed with one faulty replica of three: %v", query, err)
						continue
					}
					if got := renderTagged(res.Relation); strings.Join(got, "\n") != strings.Join(baselines[i], "\n") {
						t.Errorf("%q differs from fault-free run\n got (%d rows):\n  %s\nwant (%d rows):\n  %s",
							query, len(got), strings.Join(got, "\n  "), len(baselines[i]), strings.Join(baselines[i], "\n  "))
					}
				}
				if errs, hangs, slows, cuts := rs.InjectedFaults(); errs+hangs+slows+cuts == 0 {
					t.Errorf("scenario %s injected nothing — the suite tested a healthy federation", scenario)
				}
			})
		}
	}
}

// TestFaultDeterministicPerSeed: two federations built from the same seed
// produce identical answers — the chaos suite is replayable.
func TestFaultDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) [][]string {
		cfg := FaultConfig{
			Star:       faultStarConfig(),
			Scenario:   ScenarioKilled,
			Seed:       seed,
			Federation: faultFedConfig(seed),
		}
		q, _ := newFaultPQP(cfg)
		out := make([][]string, 0, len(faultQueries))
		for _, query := range faultQueries {
			res, err := q.QueryAlgebra(query)
			if err != nil {
				t.Fatalf("seed %d %q: %v", seed, query, err)
			}
			out = append(out, renderTagged(res.Relation))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if strings.Join(a[i], "\n") != strings.Join(b[i], "\n") {
			t.Errorf("query %d: same seed, different answers", i)
		}
	}
}

// TestFaultExhaustionFailPolicy: with every replica of one source dead, the
// fail policy rejects the query with a typed error naming that source.
func TestFaultExhaustionFailPolicy(t *testing.T) {
	cfg := FaultConfig{
		Star:       faultStarConfig(),
		DeadSource: "MD",
		Seed:       1,
		Federation: faultFedConfig(1),
	}
	q, _ := newFaultPQP(cfg)
	_, err := q.QueryAlgebra(faultQueries[1]) // joins PMID — must touch MD
	if err == nil {
		t.Fatal("query over a dead source succeeded under the fail policy")
	}
	var ex *federation.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error is not an ExhaustedError: %v", err)
	}
	if ex.Source != "MD" {
		t.Errorf("ExhaustedError names %q, want MD", ex.Source)
	}
}

// TestFaultPartialPolicyDropsLeg: same dead source under the partial
// policy — the query succeeds, the diagnostics name MD as missing, and no
// surviving cell carries an MD tag.
func TestFaultPartialPolicyDropsLeg(t *testing.T) {
	cfg := FaultConfig{
		Star:       faultStarConfig(),
		DeadSource: "MD",
		Seed:       1,
		Federation: faultFedConfig(1),
	}
	q, _ := newFaultPQP(cfg)
	q.Degrade = federation.PolicyPartial
	// A single-leg query not touching MD answers fully...
	res, err := q.QueryAlgebra(faultQueries[0])
	if err != nil {
		t.Fatalf("partial policy failed a query that never touches the dead source: %v", err)
	}
	if res.Relation.Cardinality() == 0 {
		t.Fatal("FD-only query answered empty")
	}
	rep := res.Diag.Report()
	if rep.Degraded() {
		t.Errorf("FD-only answer reports degradation: %+v", rep)
	}
	// ...and the PMID join degrades: empty leg, named in the diagnostics.
	res, err = q.QueryAlgebra(faultQueries[1])
	if err != nil {
		t.Fatalf("partial policy did not degrade: %v", err)
	}
	rep = res.Diag.Report()
	if !rep.Degraded() || len(rep.Missing) != 1 || rep.Missing[0] != "MD" {
		t.Fatalf("diagnostics = %+v, want Missing=[MD]", rep)
	}
	if _, ok := rep.Replicas["MD"]; ok {
		t.Errorf("a dead source contributed replicas: %+v", rep.Replicas)
	}
	for _, tu := range res.Relation.Tuples {
		for _, c := range tu {
			if strings.Contains(c.Format(res.Relation.Reg), "MD") {
				t.Fatalf("surviving cell tagged with the dead source: %s", c.Format(res.Relation.Reg))
			}
		}
	}
}

// TestFaultPartialMergedScheme is the scatter-gather case the policy is
// really for: the paper federation's PORGANIZATION merges AD, PD and CD;
// with CD dead under the partial policy the answer keeps the AD and PD
// rows, tags identify exactly the contributing sources, and the
// diagnostics name CD as missing.
func TestFaultPartialMergedScheme(t *testing.T) {
	fed := paperdata.New()
	buildQ := func(deadCD bool, policy federation.Policy) *pqp.PQP {
		reg := federation.NewRegistry(faultFedConfig(1))
		for name, l := range fed.LQPs() {
			reps := []lqp.LQP{l, lqp.NewLocal(fed.CD)}
			if name == paperdata.AD {
				reps[1] = lqp.NewLocal(fed.AD)
			}
			if name == paperdata.PD {
				reps[1] = lqp.NewLocal(fed.PD)
			}
			if name == paperdata.CD && deadCD {
				reps = []lqp.LQP{deadLQP{l}, deadLQP{l}}
			}
			reg.Add(name, reps...)
		}
		q := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, reg.LQPs())
		q.Degrade = policy
		return q
	}
	const query = `SELECT ONAME, INDUSTRY FROM PORGANIZATION`

	full, err := buildQ(false, federation.PolicyFail).QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	fullRows := renderTagged(full.Relation)

	q := buildQ(true, federation.PolicyPartial)
	res, err := q.QuerySQL(query)
	if err != nil {
		t.Fatalf("partial policy did not degrade the merged scheme: %v", err)
	}
	rep := res.Diag.Report()
	if len(rep.Missing) != 1 || rep.Missing[0] != paperdata.CD {
		t.Fatalf("diagnostics = %+v, want Missing=[CD]", rep)
	}
	got := renderTagged(res.Relation)
	if len(got) == 0 {
		t.Fatal("partial answer is empty; AD and PD legs should survive")
	}
	if !strings.Contains(strings.Join(fullRows, "\n"), "CD") {
		t.Fatal("full answer carries no CD tags; the merged-scheme case is vacuous")
	}
	if strings.Join(got, "\n") == strings.Join(fullRows, "\n") {
		t.Fatal("partial answer identical to the full answer — the CD leg did not drop")
	}
	for _, line := range got {
		if strings.Contains(line, "CD") {
			t.Fatalf("partial answer carries a CD-tagged cell: %s", line)
		}
	}
	// Under the fail policy the same outage is a typed refusal.
	_, err = buildQ(true, federation.PolicyFail).QuerySQL(query)
	var ex *federation.ExhaustedError
	if !errors.As(err, &ex) || ex.Source != paperdata.CD {
		t.Fatalf("fail policy error = %v, want ExhaustedError naming CD", err)
	}
}

// deadLQP fails every call but Name — a replica that is down from the
// start.
type deadLQP struct{ lqp.LQP }

var errRefused = errors.New("deadLQP: connection refused")

func (deadLQP) Relations() ([]string, error)          { return nil, errRefused }
func (deadLQP) Open(lqp.Op) (rel.Cursor, error)       { return nil, errRefused }
func (deadLQP) OpenPlan(lqp.Plan) (rel.Cursor, error) { return nil, errRefused }
func (deadLQP) Stats() ([]lqp.RelationStats, error)   { return nil, errRefused }
