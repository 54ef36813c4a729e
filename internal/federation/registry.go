package federation

// This file is the source registry: the map from logical LQP names to
// replica sets that the mediator (or any PQP embedder) builds at startup,
// plus the active health-check loop that probes every replica's Pinger
// capability on a fixed period and feeds the per-replica health state that
// call routing reads.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/lqp"
)

// Addresser is implemented by endpoints that know their network address
// (wire.Client does); the registry uses it to label replicas in health
// snapshots and diagnostics. Endpoints without it are labeled name#index.
type Addresser interface {
	Addr() string
}

// Registry maps logical source names to their replicated Sources and runs
// the active health-check loop. Build it once at startup, Add every
// source, then hand LQPs() to the PQP — the federation is transparent from
// there on.
type Registry struct {
	cfg Config

	mu         sync.Mutex
	order      []string
	sources    map[string]*Source
	shardOrder []string
	sharded    map[string]*ShardedSource

	stop    chan struct{}
	stopped sync.WaitGroup
	started bool
}

// NewRegistry returns an empty registry with cfg's defaults applied.
func NewRegistry(cfg Config) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		sources: make(map[string]*Source),
		sharded: make(map[string]*ShardedSource),
	}
}

// Add registers a logical source backed by the given replicas (at least
// one) and returns its Source. Replica order is preference order: calls
// route to the first healthy one. Adding a name twice replaces it.
func (g *Registry) Add(name string, replicas ...lqp.LQP) *Source {
	reps := make([]*replica, len(replicas))
	for i, l := range replicas {
		label := fmt.Sprintf("%s#%d", name, i)
		if a, ok := l.(Addresser); ok {
			label = a.Addr()
		}
		reps[i] = &replica{label: label, l: l, healthy: true}
	}
	s := newSource(name, g.cfg, reps)
	g.mu.Lock()
	if _, exists := g.sources[name]; !exists {
		g.order = append(g.order, name)
	}
	g.sources[name] = s
	g.mu.Unlock()
	return s
}

// AddSharded registers a logical source horizontally partitioned across
// len(shards) shard slices, each backed by its own replica set (so every
// shard is itself fault-tolerant: replicated, health-checked, retried).
// Shard i must serve the slice federation.Slice(db, i, len(shards)) of the
// logical catalog; the returned ShardedSource scatters operations across
// the shards and gathers one logical answer. Adding a name twice replaces
// it. The shard Sources are registered for probing and health reporting
// (under the logical name) but only the logical source appears in LQPs().
func (g *Registry) AddSharded(name string, shards ...[]lqp.LQP) *ShardedSource {
	members := make([]*Source, len(shards))
	for i, replicas := range shards {
		label := fmt.Sprintf("%s[%d/%d]", name, i, len(shards))
		reps := make([]*replica, len(replicas))
		for j, l := range replicas {
			rlabel := fmt.Sprintf("%s#%d", label, j)
			if a, ok := l.(Addresser); ok {
				rlabel = a.Addr()
			}
			reps[j] = &replica{label: rlabel, l: l, healthy: true}
		}
		members[i] = newSource(label, g.cfg, reps)
	}
	s := newShardedSource(name, members)
	g.mu.Lock()
	if _, exists := g.sharded[name]; !exists {
		g.shardOrder = append(g.shardOrder, name)
	}
	g.sharded[name] = s
	g.mu.Unlock()
	return s
}

// Source returns the named source.
func (g *Registry) Source(name string) (*Source, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sources[name]
	return s, ok
}

// Sharded returns the named sharded source.
func (g *Registry) Sharded(name string) (*ShardedSource, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sharded[name]
	return s, ok
}

// LQPs returns the logical-name → resilient-LQP map the PQP consumes.
// Sharded sources appear under their logical name only — the shard members
// are an implementation detail of the scatter-gather.
func (g *Registry) LQPs() map[string]lqp.LQP {
	g.mu.Lock()
	defer g.mu.Unlock()
	m := make(map[string]lqp.LQP, len(g.sources)+len(g.sharded))
	for name, s := range g.sources {
		m[name] = s
	}
	for name, s := range g.sharded {
		m[name] = s
	}
	return m
}

// namedSource pairs one probe/health unit with the logical source name it
// reports under (a shard member's own name carries the shard suffix; its
// health rows belong to the logical source).
type namedSource struct {
	logical string
	s       *Source
}

// snapshotSources lists every Source under the registry — plain ones in
// registration order, then every sharded source's members in shard order —
// with the logical name each reports under.
func (g *Registry) snapshotSources() []namedSource {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]namedSource, 0, len(g.sources)+len(g.sharded))
	for _, name := range g.order {
		out = append(out, namedSource{logical: name, s: g.sources[name]})
	}
	for _, name := range g.shardOrder {
		for _, m := range g.sharded[name].shards {
			out = append(out, namedSource{logical: name, s: m})
		}
	}
	return out
}

// Start launches the active health-check loop (a no-op when
// Config.ProbeInterval is zero or the loop is already running). Stop it
// with Stop.
func (g *Registry) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started || g.cfg.ProbeInterval <= 0 {
		return
	}
	g.started = true
	g.stop = make(chan struct{})
	g.stopped.Add(1)
	go g.probeLoop()
}

// Stop halts the health-check loop and waits for in-flight probes.
func (g *Registry) Stop() {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.started = false
	stop := g.stop
	g.mu.Unlock()
	close(stop)
	g.stopped.Wait()
}

func (g *Registry) probeLoop() {
	defer g.stopped.Done()
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.ProbeAll()
		}
	}
}

// ProbeAll probes every replica of every source once, concurrently, and
// returns when all probes have answered or timed out. The loop calls it on
// each tick; tests and operators can call it directly for an on-demand
// sweep.
func (g *Registry) ProbeAll() {
	var wg sync.WaitGroup
	for _, ns := range g.snapshotSources() {
		s := ns.s
		for _, r := range s.reps {
			p, ok := r.l.(Pinger)
			if !ok {
				continue // passive marking only
			}
			wg.Add(1)
			go func(s *Source, r *replica, p Pinger) {
				defer wg.Done()
				if err := probe(p, g.cfg.ProbeTimeout); err != nil {
					r.markDown(s.cfg, err)
					s.noteError()
				} else {
					r.markUp()
				}
			}(s, r, p)
		}
	}
	wg.Wait()
}

// probe runs one ping under its own deadline, guarding against Pinger
// implementations that ignore the passed bound. A probe abandoned at the
// deadline finishes on its own goroutine.
func probe(p Pinger, timeout time.Duration) error {
	ch := make(chan error, 1)
	go func() { ch <- p.Ping(timeout) }()
	timer := time.NewTimer(timeout + timeout/2)
	defer timer.Stop()
	select {
	case err := <-ch:
		return err
	case <-timer.C:
		return fmt.Errorf("federation: health probe exceeded %v", timeout)
	}
}

// ReplicaHealth is one replica's state in a registry snapshot.
type ReplicaHealth struct {
	// Source is the logical name; Replica the endpoint label.
	Source  string
	Replica string
	// Healthy is the last-known liveness; BreakerOpen whether the circuit
	// breaker is currently rejecting calls.
	Healthy     bool
	BreakerOpen bool
	// LastError is the most recent failure ("" when none).
	LastError string
	// Calls, MeanLatency and P95 read the replica's latency estimator (the
	// one that places hedges): observed successful calls, their EWMA mean,
	// and the mean+3×deviation tail estimate. Zero before any call.
	Calls       int64
	MeanLatency time.Duration
	P95         time.Duration
}

// Health snapshots every replica's state, sources in registration order
// (plain sources first, then sharded ones shard by shard). Shard members'
// rows report under the logical source name; their replica labels carry the
// shard suffix.
func (g *Registry) Health() []ReplicaHealth {
	now := time.Now()
	var out []ReplicaHealth
	for _, ns := range g.snapshotSources() {
		for _, r := range ns.s.reps {
			r.mu.Lock()
			h := ReplicaHealth{
				Source:      ns.logical,
				Replica:     r.label,
				Healthy:     r.healthy,
				BreakerOpen: !r.openUntil.IsZero() && now.Before(r.openUntil),
			}
			if r.lastErr != nil {
				h.LastError = r.lastErr.Error()
			}
			r.mu.Unlock()
			// The estimator locks internally; read it outside r.mu.
			h.Calls = r.est.Count()
			h.MeanLatency = r.est.Mean()
			h.P95 = r.est.P95()
			out = append(out, h)
		}
	}
	return out
}

// ShardInfo is one (shard, replica) pair of a sharded source in a registry
// snapshot: where the shard lives, whether it is up, and how many rows it
// has served into gathered answers.
type ShardInfo struct {
	// Source is the logical name; Shard indexes it among Shards slices.
	Source string
	Shard  int
	Shards int
	// Replica is the endpoint label of one of the shard's replicas.
	Replica string
	// Healthy is the replica's last-known liveness.
	Healthy bool
	// Rows counts the rows this shard has delivered into gathered answers
	// (shared across the shard's replicas — the scatter meters the shard
	// leg, not the endpoint that happened to serve it).
	Rows int64
}

// Shards snapshots the shard map of every sharded source, in registration
// order, one row per (shard, replica). Registries without sharded sources
// return nothing — V$SHARD is empty in an unsharded federation.
func (g *Registry) Shards() []ShardInfo {
	g.mu.Lock()
	names := append([]string(nil), g.shardOrder...)
	srcs := make([]*ShardedSource, len(names))
	for i, name := range names {
		srcs[i] = g.sharded[name]
	}
	g.mu.Unlock()

	var out []ShardInfo
	for i, name := range names {
		s := srcs[i]
		for shard, m := range s.shards {
			rows := s.RowsServed(shard)
			for _, r := range m.reps {
				r.mu.Lock()
				healthy := r.healthy
				r.mu.Unlock()
				out = append(out, ShardInfo{
					Source:  name,
					Shard:   shard,
					Shards:  len(s.shards),
					Replica: r.label,
					Healthy: healthy,
					Rows:    rows,
				})
			}
		}
	}
	return out
}
