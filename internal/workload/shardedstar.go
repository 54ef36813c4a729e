package workload

// This file is the sharded-federation workload: the star federation of
// star.go with every logical source horizontally partitioned across N shard
// slices (federation.Slice — placement by canonical-ID hash through
// rel.PartitionOf), each shard backed by its own replica set behind the
// resilient federation layer, with the same deterministic fault injection
// the replicated workload uses. It is what the sharded property suite runs
// against: answers must be cell-for-cell identical to the single-copy star
// no matter the shard count, the replica count, or the injected faults.

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/federation"
	"repro/internal/lqp"
)

// ShardedStarConfig parameterizes a sharded star federation.
type ShardedStarConfig struct {
	// Fault carries the data shape, replicas per shard, fault scenario,
	// dead source and federation tuning — the same knobs as the replicated
	// workload, applied per shard.
	Fault FaultConfig
	// Shards is how many slices every logical source deals across
	// (default 2).
	Shards int
}

func (c ShardedStarConfig) withDefaults() ShardedStarConfig {
	c.Fault = c.Fault.withDefaults()
	if c.Shards <= 0 {
		c.Shards = 2
	}
	return c
}

// String renders the configuration for test and benchmark names.
func (c ShardedStarConfig) String() string {
	return fmt.Sprintf("shards=%d/%s", c.Shards, c.Fault.String())
}

// ShardedStar is a star federation whose logical sources are each sharded
// N ways, every shard replicated behind the federation layer.
type ShardedStar struct {
	// Star is the underlying single-copy federation (data and schema) —
	// the ground truth the sharded answers are compared against.
	Star *Star
	// Registry serves the sharded sources.
	Registry *federation.Registry
	// Shards is the shard count per logical source.
	Shards int
	// Slices maps each source name to its shard slices in shard order;
	// the union of a source's slices is exactly its Star database.
	Slices map[string][]*catalog.Database
	// Sharded maps each source name to its scatter-gather source.
	Sharded map[string]*federation.ShardedSource
	// Faulty maps each source name to its misbehaving replicas, for
	// asserting that faults actually fired.
	Faulty map[string][]*faultinject.Flaky
}

// NewShardedStar builds the sharded federation. Source S's catalog slices
// into cfg.Shards horizontal partitions; shard i gets cfg.Fault.Replicas
// independent LQPs over slice i. Replica 0 of every shard misbehaves per
// cfg.Fault.Scenario, and every replica of every shard of
// cfg.Fault.DeadSource is killed outright — the exhaustion case. Placement
// maps are primed from the catalogs' declared keys, so key-equality
// selects prune to one shard from the first query.
func NewShardedStar(cfg ShardedStarConfig) *ShardedStar {
	cfg = cfg.withDefaults()
	star := NewStar(cfg.Fault.Star)
	ss := &ShardedStar{
		Star:     star,
		Registry: federation.NewRegistry(cfg.Fault.Federation),
		Shards:   cfg.Shards,
		Slices:   make(map[string][]*catalog.Database),
		Sharded:  make(map[string]*federation.ShardedSource),
		Faulty:   make(map[string][]*faultinject.Flaky),
	}
	dead := faultinject.Profile{Seed: cfg.Fault.Seed, ErrEvery: 1}
	for _, db := range star.Databases() {
		name := db.Name()
		groups := make([][]lqp.LQP, cfg.Shards)
		for i := 0; i < cfg.Shards; i++ {
			slice, err := federation.Slice(db, i, cfg.Shards)
			if err != nil {
				panic(err) // static inputs: only a programming error gets here
			}
			ss.Slices[name] = append(ss.Slices[name], slice)
			reps := make([]lqp.LQP, cfg.Fault.Replicas)
			for j := range reps {
				var l lqp.LQP = lqp.NewLocal(slice)
				switch {
				case name == cfg.Fault.DeadSource:
					f := faultinject.New(l, dead)
					ss.Faulty[name] = append(ss.Faulty[name], f)
					l = f
				case j == 0 && cfg.Fault.Scenario != ScenarioNone:
					f := faultinject.New(l, cfg.Fault.profile())
					ss.Faulty[name] = append(ss.Faulty[name], f)
					l = f
				}
				reps[j] = l
			}
			groups[i] = reps
		}
		src := ss.Registry.AddSharded(name, groups...)
		src.SetShardKeys(federation.NewShardMap(db, cfg.Shards).Keys)
		ss.Sharded[name] = src
	}
	return ss
}

// LQPs returns the scatter-gather LQP map — what a PQP over this federation
// executes against.
func (ss *ShardedStar) LQPs() map[string]lqp.LQP { return ss.Registry.LQPs() }

// InjectedFaults sums the faults that actually fired across the
// federation's misbehaving replicas.
func (ss *ShardedStar) InjectedFaults() (errs, hangs, slows, cuts int64) {
	for _, fs := range ss.Faulty {
		for _, f := range fs {
			e, h, s, c := f.Injected()
			errs, hangs, slows, cuts = errs+e, hangs+h, slows+s, cuts+c
		}
	}
	return
}
