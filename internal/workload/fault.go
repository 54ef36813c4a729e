package workload

// This file is the fault-tolerance workload: the star federation of star.go
// replicated N ways per logical source, with deterministic fault injection
// (internal/faultinject) on chosen replicas and the resilient federation
// layer (internal/federation) on top. It is what the chaos property suite
// runs against — a federation where one replica of every source is killed,
// hung, slowed or cut mid-stream, and the query layer is expected not to
// notice (or, under the partial policy with a whole source dead, to say
// exactly what is missing).

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/federation"
	"repro/internal/lqp"
)

// FaultScenario names one way a replica can misbehave.
type FaultScenario string

const (
	// ScenarioNone injects nothing — the fault-free baseline, still run
	// through the federation layer so only the faults differ.
	ScenarioNone FaultScenario = "none"
	// ScenarioKilled fails every call to the faulty replica.
	ScenarioKilled FaultScenario = "killed"
	// ScenarioHung blocks every call to the faulty replica for Hang before
	// failing it — the replica that neither answers nor errors.
	ScenarioHung FaultScenario = "hung"
	// ScenarioSlow delays every call to the faulty replica by Latency but
	// lets it succeed.
	ScenarioSlow FaultScenario = "slow"
	// ScenarioCut lets opens succeed, then kills each cursor after its
	// first batch — the mid-stream transport failure.
	ScenarioCut FaultScenario = "cut"
)

// FaultConfig parameterizes a replicated star federation with injected
// faults.
type FaultConfig struct {
	// Star shapes the underlying data (DefaultStarConfig when zero).
	Star StarConfig
	// Replicas is the number of replicas per logical source (default 3).
	// All replicas of a source serve the same database snapshot.
	Replicas int
	// Scenario is what replica 0 of every source does (default none).
	Scenario FaultScenario
	// DeadSource, when set, kills every replica of the named source —
	// exhaustion, the case the degradation policy decides.
	DeadSource string
	// Seed fixes the fault-injection cadence and the federation jitter.
	Seed int64
	// Latency is the slow scenario's injected delay (default 20ms).
	Latency time.Duration
	// Hang is the hung scenario's stall (default 10s — rely on the
	// federation CallTimeout to cut it short).
	Hang time.Duration
	// Federation tunes the resilience layer. Zero-value fields take the
	// federation defaults; Seed is carried over when unset.
	Federation federation.Config
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.Star.Facts == 0 {
		c.Star = DefaultStarConfig()
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Scenario == "" {
		c.Scenario = ScenarioNone
	}
	if c.Latency <= 0 {
		c.Latency = 20 * time.Millisecond
	}
	if c.Hang <= 0 {
		c.Hang = 10 * time.Second
	}
	if c.Federation.Seed == 0 {
		c.Federation.Seed = c.Seed
	}
	return c
}

// profile renders the scenario as a fault-injection profile.
func (c FaultConfig) profile() faultinject.Profile {
	p := faultinject.Profile{Seed: c.Seed}
	switch c.Scenario {
	case ScenarioKilled:
		p.ErrEvery = 1
	case ScenarioHung:
		p.HangEvery = 1
		p.Hang = c.Hang
	case ScenarioSlow:
		p.SlowEvery = 1
		p.Latency = c.Latency
	case ScenarioCut:
		p.CutEvery = 1
		p.CutAfter = 1
	}
	return p
}

// ReplicatedStar is a star federation where every logical source has
// several replicas behind the resilient federation layer, some of them
// deliberately unreliable.
type ReplicatedStar struct {
	// Star is the underlying single-copy federation (data and schema).
	Star *Star
	// Registry is the federation layer serving the replicas.
	Registry *federation.Registry
	// Faulty maps each source name to its misbehaving replicas, for
	// asserting that faults actually fired (Flaky.Injected).
	Faulty map[string][]*faultinject.Flaky
}

// NewReplicatedStar builds the replicated federation. Replica i of source S
// is an independent LQP over S's one database snapshot (labelled S#i by the
// registry); replica 0 misbehaves per cfg.Scenario, and every replica of
// cfg.DeadSource is killed outright.
func NewReplicatedStar(cfg FaultConfig) *ReplicatedStar {
	cfg = cfg.withDefaults()
	star := NewStar(cfg.Star)
	rs := &ReplicatedStar{
		Star:     star,
		Registry: federation.NewRegistry(cfg.Federation),
		Faulty:   make(map[string][]*faultinject.Flaky),
	}
	dead := faultinject.Profile{Seed: cfg.Seed, ErrEvery: 1}
	for _, db := range star.Databases() {
		name := db.Name()
		reps := make([]lqp.LQP, cfg.Replicas)
		for i := range reps {
			var l lqp.LQP = lqp.NewLocal(db)
			switch {
			case name == cfg.DeadSource:
				f := faultinject.New(l, dead)
				rs.Faulty[name] = append(rs.Faulty[name], f)
				l = f
			case i == 0 && cfg.Scenario != ScenarioNone:
				f := faultinject.New(l, cfg.profile())
				rs.Faulty[name] = append(rs.Faulty[name], f)
				l = f
			}
			reps[i] = l
		}
		rs.Registry.Add(name, reps...)
	}
	return rs
}

// LQPs returns the resilient LQP map — what a PQP over this federation
// executes against.
func (rs *ReplicatedStar) LQPs() map[string]lqp.LQP { return rs.Registry.LQPs() }

// InjectedFaults sums the faults that actually fired across the federation's
// misbehaving replicas.
func (rs *ReplicatedStar) InjectedFaults() (errs, hangs, slows, cuts int64) {
	for _, fs := range rs.Faulty {
		for _, f := range fs {
			e, h, s, c := f.Injected()
			errs, hangs, slows, cuts = errs+e, hangs+h, slows+s, cuts+c
		}
	}
	return
}

// String renders the scenario for test names.
func (c FaultConfig) String() string {
	if c.DeadSource != "" {
		return fmt.Sprintf("dead=%s/seed=%d", c.DeadSource, c.Seed)
	}
	return fmt.Sprintf("%s/seed=%d", c.Scenario, c.Seed)
}
