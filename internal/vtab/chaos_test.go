package vtab

// Satellite chaos suite: seeded fault injection (the faultinject matrix the
// federation tests pin) with the observability plane in the loop. For every
// seed the V$FAULT and V$SOURCE_STATS counters must deterministically match
// the per-query federation.Diagnostics the engine reported — the monitoring
// numbers are the fault-handling numbers, not an approximation of them.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/pqp"
	"repro/internal/stats"
	"repro/internal/workload"
)

var chaosSeeds = []int64{1, 7, 42}

// chaosQueries stresses the fault layer differently: one single-leg
// pushdown chain and two join orders that fan out over every source.
var chaosQueries = []string{
	`((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`,
	`(((PFACT [MK = MK] PMID) [DK = DK] (PDIM [DCAT = "dcat0"])) [VAL, DCAT, GRADE])`,
	`(((PFACT [DK = DK] PDIM) [MK = MK] PMID) [VAL, DCAT, GRADE])`,
}

// chaosRun executes the query mix against a replicated star with replica 0
// of every source killed, observing through a fresh fault catalog, and
// returns the observability plane's view (sorted V$FAULT and V$SOURCE_STATS
// lines) plus the engine's own view (summed per-query diagnostics).
type chaosView struct {
	faultRows  []string
	statRows   []string
	retries    int
	hedges     int
	down       int
	perSource  map[string]stats.FaultCounters
	injectErrs int64
}

func chaosRunOnce(t *testing.T, seed int64) chaosView {
	t.Helper()
	faults := stats.NewCatalog()
	cfg := workload.FaultConfig{
		Star:     workload.StarConfig{Facts: 900, Dims: 20, Mids: 10, Categories: 5, Seed: 11},
		Scenario: workload.ScenarioKilled,
		Seed:     seed,
		Federation: federation.Config{
			CallTimeout: 500 * time.Millisecond,
			MaxRetries:  1,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
			HedgeDelay:  -1, // keep call counts exact: hedging has its own tests
			Seed:        seed,
			Stats:       faults,
		},
	}
	rs := workload.NewReplicatedStar(cfg)
	q := pqp.New(rs.Star.Schema, rs.Star.Registry, nil, rs.LQPs())

	view := chaosView{perSource: map[string]stats.FaultCounters{}}
	for _, query := range chaosQueries {
		res, err := q.QueryAlgebra(query)
		if err != nil {
			t.Fatalf("seed %d query %q: %v", seed, query, err)
		}
		rep := res.Diag.Report()
		view.retries += rep.Retries
		view.hedges += rep.Hedges
	}

	vt := New()
	vt.Bind(Sources{Faults: faults, Registry: rs.Registry})
	fr, err := drainOpen(vt.Open(lqp.Retrieve("V$FAULT")))
	if err != nil {
		t.Fatalf("V$FAULT: %v", err)
	}
	for _, row := range fr.Tuples {
		view.faultRows = append(view.faultRows, row.Key())
		view.perSource[row[0].Str()] = stats.FaultCounters{
			Errors:  row[1].IntVal(),
			Retries: row[2].IntVal(),
			Hedges:  row[3].IntVal(),
		}
	}
	sr, err := drainOpen(vt.Open(lqp.Project("V$SOURCE_STATS", "SOURCE", "REPLICA", "HEALTHY", "BREAKER_OPEN", "LAST_ERROR")))
	if err != nil {
		t.Fatalf("V$SOURCE_STATS: %v", err)
	}
	for _, row := range sr.Tuples {
		view.statRows = append(view.statRows, row.Key())
		if !row[2].BoolVal() { // HEALTHY
			view.down++
		}
	}
	view.injectErrs, _, _, _ = rs.InjectedFaults()
	return view
}

func TestChaosObservabilityMatrix(t *testing.T) {
	for _, seed := range chaosSeeds {
		view := chaosRunOnce(t, seed)

		// The table enumerates the whole federation, dead-quiet sources
		// included.
		if len(view.perSource) != 3 {
			t.Fatalf("seed %d: V$FAULT has %d sources, want FD, DD, MD", seed, len(view.perSource))
		}
		var totErrors, totRetries, totHedges int64
		for src, fc := range view.perSource {
			totErrors += fc.Errors
			totRetries += fc.Retries
			totHedges += fc.Hedges
			if fc.Errors < 1 {
				t.Errorf("seed %d: source %s shows %d errors; its killed replica was called", seed, src, fc.Errors)
			}
		}

		// V$FAULT's totals are the engine's own diagnostics, not estimates.
		if totRetries != int64(view.retries) {
			t.Errorf("seed %d: V$FAULT retries total %d != summed Diagnostics retries %d", seed, totRetries, view.retries)
		}
		if totHedges != int64(view.hedges) || totHedges != 0 {
			t.Errorf("seed %d: hedges: V$FAULT %d, Diagnostics %d, want 0 (hedging disabled)", seed, totHedges, view.hedges)
		}
		if totErrors < totRetries {
			t.Errorf("seed %d: %d errors but %d retries — every failover is preceded by a failure", seed, totErrors, totRetries)
		}
		if view.injectErrs < totErrors {
			t.Errorf("seed %d: catalog booked %d errors but only %d faults were injected", seed, totErrors, view.injectErrs)
		}

		// The killed replicas are visible in V$SOURCE_STATS: 3 sources x 3
		// replicas, with at least one marked down per source.
		if len(view.statRows) != 9 {
			t.Errorf("seed %d: V$SOURCE_STATS has %d replica rows, want 9", seed, len(view.statRows))
		}
		if view.down < 3 {
			t.Errorf("seed %d: only %d replicas marked unhealthy, want the killed replica of each source\n%v", seed, view.down, view.statRows)
		}

		// Determinism: the same seed reproduces the same counters bit for
		// bit — the chaos matrix is replayable evidence, not noise.
		again := chaosRunOnce(t, seed)
		if !reflect.DeepEqual(view.faultRows, again.faultRows) {
			t.Errorf("seed %d: V$FAULT not deterministic:\n run 1: %v\n run 2: %v", seed, view.faultRows, again.faultRows)
		}
		if view.retries != again.retries || view.hedges != again.hedges {
			t.Errorf("seed %d: diagnostics not deterministic: retries %d/%d hedges %d/%d",
				seed, view.retries, again.retries, view.hedges, again.hedges)
		}
	}
}
