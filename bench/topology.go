package main

// Topology assembly: the benchmark stands up, inside its own process, the
// same layers cmd/polygend and cmd/lqpd wire together, with a real loopback
// TCP hop wherever the daemons have one:
//
//	wire.Client --tcp--> wire.Server(mediator.Service(pqp.PQP))
//	   pqp --> federation.Registry --> wire.Client --tcp--> wire.Server(LQP)
//	                                         LQP = lqp.Local | store.LQP
//
// The shipped daemons cannot serve a generated federation remotely, so the
// wiring is repeated here; it follows cmd/polygend and cmd/lqpd line for line
// (federation defaults, stats collection, plan cache, pool sizes).

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/pqp"
	"repro/internal/sourceset"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

// sourceSpec says how one logical source is served.
type sourceSpec struct {
	db       *catalog.Database
	shards   int // horizontal slices, each behind its own endpoints
	replicas int // endpoints per slice
	// durable serves every endpoint from a store.LQP over its own data
	// directory instead of an in-memory lqp.Local.
	durable      bool
	fsync        store.FsyncMode
	compactBytes int64
}

// federationSpec is a generated federation and how to serve it.
type federationSpec struct {
	name     string
	schema   *core.Schema
	registry *sourceset.Registry
	sources  []sourceSpec
	// writable dials a write client to every durable endpoint.
	writable bool
}

// endpoint is one running "lqpd": a wire server over one slice replica.
type endpoint struct {
	source string
	shard  int
	label  string // "<source>-<shard>-<replica>", what spans call the endpoint
	addr   string
	server *wire.Server
	store  *store.Store // nil for in-memory endpoints
	probe  *storeProbe  // nil unless traced and durable
}

// topology is one running federation with its clients.
type topology struct {
	spec      federationSpec
	dir       string // holds the durable endpoints' data directories
	endpoints []*endpoint
	registry  *federation.Registry
	faults    *stats.Catalog
	pqp       *pqp.PQP
	front     *wire.Server
	backs     []*wire.Client // the mediator's connections to the endpoints
	clients   []*wire.Client // one per closed-loop client
	sessions  []string
	// writers holds, per durable endpoint in start order, the client inserts
	// go through; nil unless the federation is writable.
	writers []*wire.Client

	rec         *recorder // nil when untraced
	frontProbe  connProbe
	backProbe   connProbe
	closed      bool
	closeErrors []error
}

// buildTopology starts every server and dials every client. With rec set,
// the timing shims stand at every layer boundary. dir receives the durable
// sources' data directories.
func buildTopology(spec federationSpec, dir string, nclients int, rec *recorder) (t *topology, err error) {
	t = &topology{spec: spec, dir: dir, rec: rec, faults: stats.NewCatalog()}
	defer func() {
		if err != nil {
			t.close()
		}
	}()

	// polygend's federation defaults (its -call-timeout, -retries and
	// -hedge-delay flags).
	t.registry = federation.NewRegistry(federation.Config{
		CallTimeout: 10 * time.Second,
		MaxRetries:  1,
		Stats:       t.faults,
	})
	for _, src := range spec.sources {
		groups := make([][]lqp.LQP, src.shards)
		for shard := 0; shard < src.shards; shard++ {
			for rep := 0; rep < src.replicas; rep++ {
				ep, err := t.startEndpoint(src, shard, rep, dir)
				if err != nil {
					return t, err
				}
				client, err := wire.Dial(ep.addr)
				if err != nil {
					return t, err
				}
				t.backs = append(t.backs, client)
				var leg lqp.LQP = client
				if rec != nil {
					leg = legShim{&lqpShim{LocalLQP: client, rec: rec, layer: "leg", label: ep.label}, client}
				}
				groups[shard] = append(groups[shard], leg)
			}
		}
		if src.shards > 1 {
			t.registry.AddSharded(src.db.Name(), groups...)
		} else {
			t.registry.Add(src.db.Name(), groups[0]...)
		}
	}
	t.registry.Start()

	lqps := t.registry.LQPs()
	if rec != nil {
		for name, l := range lqps {
			lqps[name] = sourceShim{&lqpShim{LocalLQP: l.(wire.LocalLQP), rec: rec, layer: "source", label: name}}
		}
	}
	t.pqp = pqp.New(spec.schema, spec.registry, nil, lqps)
	if err := t.pqp.CollectStats(); err != nil {
		return t, err
	}
	var svc wire.Mediator = mediator.New(t.pqp, mediator.Config{Federation: spec.name})
	if rec != nil {
		svc = &mediatorShim{Mediator: svc, rec: rec}
	}
	t.front = wire.NewMediatorServer(svc)
	if rec != nil {
		t.front.ConnHook = t.frontProbe.hook
	}
	frontAddr, err := t.front.Listen("127.0.0.1:0")
	if err != nil {
		return t, err
	}

	for i := 0; i < nclients; i++ {
		c, err := wire.Dial(frontAddr)
		if err != nil {
			return t, err
		}
		t.clients = append(t.clients, c)
		info, err := c.OpenSession()
		if err != nil {
			return t, err
		}
		t.sessions = append(t.sessions, info.ID)
	}
	for _, ep := range t.endpoints {
		if ep.store == nil || !spec.writable {
			continue
		}
		w, err := wire.DialPool(ep.addr, nclients)
		if err != nil {
			return t, err
		}
		t.writers = append(t.writers, w)
	}
	return t, nil
}

// startEndpoint is cmd/lqpd: slice, optionally open a store, serve.
func (t *topology) startEndpoint(src sourceSpec, shard, rep int, dir string) (*endpoint, error) {
	name := src.db.Name()
	db := src.db
	if src.shards > 1 || src.durable {
		// A store owns its seed catalog, so every durable endpoint gets its
		// own copy of the slice.
		var err error
		if db, err = federation.Slice(src.db, shard, src.shards); err != nil {
			return nil, err
		}
	}
	ep := &endpoint{source: name, shard: shard, label: fmt.Sprintf("%s-%d-%d", name, shard, rep)}
	var served wire.LocalLQP = lqp.NewLocal(db)
	if src.durable {
		opts := store.Options{Fsync: src.fsync, FsyncInterval: 50 * time.Millisecond, CompactBytes: src.compactBytes}
		if t.rec != nil {
			ep.probe = &storeProbe{rec: t.rec, label: ep.label}
			opts.WrapFile = ep.probe.wrapFile
		}
		st, err := store.Open(filepath.Join(dir, ep.label), name, db, opts)
		if err != nil {
			return nil, err
		}
		ep.store = st
		served = store.NewLQP(st)
	}
	if t.rec != nil {
		shim := &lqpShim{LocalLQP: served, rec: t.rec, layer: "lqp", label: ep.label}
		if ins, ok := served.(lqp.Inserter); ok && src.durable {
			served = storeShim{shim, ins}
		} else {
			served = shim
		}
	}
	ep.server = wire.NewServerFor(served)
	if t.rec != nil {
		ep.server.ConnHook = t.backProbe.hook
	}
	addr, err := ep.server.Listen("127.0.0.1:0")
	if err != nil {
		if ep.store != nil {
			ep.store.Close()
		}
		return nil, err
	}
	ep.addr = addr
	t.endpoints = append(t.endpoints, ep)
	return ep, nil
}

// close hangs up every client, stops every server and closes every store.
// Errors closing a store matter (its last sync) and are kept.
func (t *topology) close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, group := range [][]*wire.Client{t.clients, t.writers, t.backs} {
		for _, c := range group {
			c.Close()
		}
	}
	if t.registry != nil {
		t.registry.Stop()
	}
	if t.front != nil {
		t.front.Close()
	}
	for _, ep := range t.endpoints {
		ep.server.Close()
		if ep.store != nil {
			if err := ep.store.Close(); err != nil {
				t.closeErrors = append(t.closeErrors, fmt.Errorf("closing store %s: %w", ep.store.Dir(), err))
			}
		}
	}
}

// walGeneration parses the generation out of a store's log path.
func walGeneration(path string) (int64, bool) {
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "wal-") || !strings.HasSuffix(base, ".seg") {
		return 0, false
	}
	gen, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".seg"), 10, 64)
	return gen, err == nil
}

// snapshotPath is the snapshot beside the log at walPath.
func snapshotPath(walPath string, gen int64) string {
	return filepath.Join(filepath.Dir(walPath), "snap-"+strconv.FormatInt(gen, 10))
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}
