// Command polygend serves a whole polygen federation as a mediator daemon:
// one shared Polygen Query Processor — plan cache, statistics catalog and
// canonical-ID interner warmed once — behind the wire query protocol, for
// any number of concurrent clients (cmd/polygen -connect, wire.Client, the
// bench/ serve-mix workload). It is the paper's Figure 1 stood up as a
// long-running service: LQPs below (in-process paper databases, or remote
// cmd/lqpd daemons via -remote), sessions with audit trails above.
//
// Usage:
//
//	polygend -addr 127.0.0.1:7100                   # paper federation, in-process LQPs
//	polygend -addr :7100 -workload star             # synthetic star federation
//	polygend -addr :7100 -remote 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	polygend -addr :7100 -replicas 'AD=:7001|:7004,PD=:7002|:7005,CD=:7003' \
//	         -degrade partial -health-interval 2s
//	polygend -addr :7100 -shards 'AD=:7001,:7002,:7003'  # AD split across 3x lqpd -shard i/3
//
// Every query runs through the fault-tolerance layer (internal/federation):
// per-replica call deadlines, bounded retries with failover, hedged streaming
// opens and circuit breakers. -replicas gives each logical source several
// lqpd endpoints to fail over between; -degrade picks what happens when a
// source exhausts them all. -shards instead partitions a logical source
// horizontally across several lqpd daemons (each started with -shard i/N)
// and scatter-gathers every retrieval across them — the two compose, since
// each shard address may itself list |-separated replicas.
//
// SIGINT/SIGTERM begin a graceful shutdown: the daemon stops accepting,
// drains in-flight requests up to -drain, then exits. A second signal
// forces immediate teardown.
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cmdutil"
	"repro/internal/federation"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/translate"
	"repro/internal/vtab"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	wl := flag.String("workload", "paper", `federation to serve: "paper" (the paper's AD/PD/CD) or "star" (synthetic star schema)`)
	remote := flag.String("remote", "", "comma-separated lqpd addresses to use as the federation's LQPs (paper workload only)")
	replicas := flag.String("replicas", "", `replicated federation spec (paper workload only): comma-separated NAME=addr|addr|... groups of lqpd replicas per logical source, e.g. "AD=:7001|:7004,PD=:7002,CD=:7003"; overrides -remote`)
	shards := flag.String("shards", "", `sharded federation spec (paper workload only): semicolon-separated NAME=addr,addr,... groups, the i-th address serving the slice "lqpd -shard i/N" of that source; an address may carry |-separated replicas of its shard, e.g. "AD=:7001|:7004,:7002,:7003;PD=:7005,:7006". Sources not named keep their in-process LQPs. Conflicts with -remote/-replicas`)
	degrade := flag.String("degrade", "fail", `default degradation policy when a source exhausts its replicas: "fail" (the query fails, naming the source) or "partial" (the leg drops out, named in the answer's diagnostics); sessions may override per-session`)
	healthInterval := flag.Duration("health-interval", 0, "active replica health-probe period (0 disables active probing; passive failure marking always applies)")
	callTimeout := flag.Duration("call-timeout", 10*time.Second, "per-replica call deadline before a call fails over")
	retries := flag.Int("retries", 1, "extra passes over a source's replica set before a call is exhausted")
	hedgeDelay := flag.Duration("hedge-delay", 0, "wait before hedging a streaming open on the next replica (0 = adaptive from observed latency, negative disables hedging)")
	name := flag.String("name", "", "federation name announced to clients (defaults to the workload name)")
	cacheSize := flag.Int("plan-cache", translate.DefaultPlanCacheSize, "plan cache capacity in plans (0 disables the cache)")
	noOptimize := flag.Bool("no-optimize", false, "disable the cost-based query optimizer")
	relaxed := flag.Bool("relaxed-reorder", false, "permit tag-relaxed join reordering (see translate.Options)")
	collect := flag.Bool("collect-stats", true, "probe LQP statistics at startup to seed the optimizer")
	memBudget := flag.String("mem-budget", "", `per-operator cap on blocking hash state, e.g. "64M" or "1G" (K/M/G suffixes; empty disables); a query past it fails`)
	maxSessions := flag.Int("max-sessions", 0, "session table bound (0 = default)")
	sessionIdle := flag.Duration("session-idle", 0, "idle session expiry (0 = default 1h)")
	writeTimeout := flag.Duration("write-timeout", wire.DefaultTimeout, "per-message write deadline (a client that stops reading is dropped)")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = keep idle connections open)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	metricsAddr := flag.String("metrics-addr", "", "serve a Prometheus-text-format /metrics endpoint on this HTTP address (empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "log statements slower than this threshold as one JSON line each on stderr (0 disables)")
	flag.Parse()

	policy, err := federation.ParsePolicy(*degrade)
	if err != nil {
		fatal("%v", err)
	}
	// faults receives the fault-tolerance layer's error/retry/hedge
	// observations for the life of the process; it feeds V$FAULT and the
	// /metrics fault counters. It is deliberately not the optimizer's
	// statistics catalog — CollectStats replaces that one wholesale.
	faults := stats.NewCatalog()
	fedCfg := federation.Config{
		CallTimeout:   *callTimeout,
		MaxRetries:    *retries,
		HedgeDelay:    *hedgeDelay,
		ProbeInterval: *healthInterval,
		Stats:         faults,
	}

	// Every LQP map is served through the fault-tolerance layer: per-call
	// deadlines, retries with failover, hedged opens and circuit breakers
	// (internal/federation). With -replicas a logical source has several
	// endpoints to fail over between; otherwise each source is a
	// single-replica group and the layer contributes deadlines and retries.
	// The registry is retained: V$SOURCE_STATS and /metrics snapshot its
	// per-replica health and latency estimators.
	var fedReg *federation.Registry
	resilient := func(lqps map[string]lqp.LQP) map[string]lqp.LQP {
		reg := federation.NewRegistry(fedCfg)
		for name, l := range lqps {
			reg.Add(name, l)
		}
		reg.Start()
		fedReg = reg
		return reg.LQPs()
	}

	// The V$ virtual tables are registered like any other source; their
	// schemes join the polygen schema and their live sources bind after the
	// mediator exists (vtab.Tables serves empty tables until then).
	vt := vtab.New()
	addVtab := func(lqps map[string]lqp.LQP) map[string]lqp.LQP {
		lqps[vtab.SourceName] = vt
		return lqps
	}

	var processor *pqp.PQP
	switch *wl {
	case "paper":
		fed := paperdata.New()
		var lqps map[string]lqp.LQP
		switch {
		case *shards != "":
			if *replicas != "" || *remote != "" {
				fatal("-shards conflicts with -remote/-replicas")
			}
			reg, closeReg := cmdutil.DialShards(*shards, fedCfg, "polygend")
			defer closeReg()
			// Sources the spec does not shard stay in-process behind the
			// same registry, so the federation still answers every scheme.
			served := reg.LQPs()
			for name, l := range fed.LQPs() {
				if _, ok := served[name]; !ok {
					reg.Add(name, l)
				}
			}
			fedReg = reg
			lqps = reg.LQPs()
		case *replicas != "":
			reg, closeReg := cmdutil.DialReplicas(*replicas, fedCfg, "polygend")
			defer closeReg()
			fedReg = reg
			lqps = reg.LQPs()
		case *remote != "":
			dialed, closeLQPs := cmdutil.DialLQPs(*remote, "polygend")
			defer closeLQPs()
			lqps = resilient(dialed)
		default:
			lqps = resilient(fed.LQPs())
		}
		schema, err := vtab.AugmentSchema(fed.Schema)
		if err != nil {
			fatal("%v", err)
		}
		fed.Registry.Intern(vtab.SourceName)
		processor = pqp.New(schema, fed.Registry, identity.CaseFold{}, addVtab(lqps))
	case "star":
		if *remote != "" || *replicas != "" || *shards != "" {
			fatal("-remote/-replicas/-shards are only supported with -workload paper")
		}
		star := workload.NewStar(workload.DefaultStarConfig())
		schema, err := vtab.AugmentSchema(star.Schema)
		if err != nil {
			fatal("%v", err)
		}
		star.Registry.Intern(vtab.SourceName)
		processor = pqp.New(schema, star.Registry, nil, addVtab(resilient(star.LQPs())))
	default:
		fatal("unknown workload %q (want paper or star)", *wl)
	}

	processor.Optimize = !*noOptimize
	processor.RelaxedJoinReorder = *relaxed
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			fatal("bad -mem-budget: %v", err)
		}
		processor.SetMemoryBudget(budget)
	}
	if *cacheSize > 0 {
		processor.Plans = translate.NewPlanCache(*cacheSize)
	} else {
		processor.Plans = nil
	}
	if *collect {
		if err := processor.CollectStats(); err != nil {
			fatal("collecting statistics: %v", err)
		}
	}

	fedName := *name
	if fedName == "" {
		fedName = *wl
	}
	svc := mediator.New(processor, mediator.Config{
		Federation:  fedName,
		MaxSessions: *maxSessions,
		SessionIdle: *sessionIdle,
		Degrade:     policy,
		SlowQuery:   *slowQuery,
	})
	// Everything the V$ tables observe now exists: bind the live sources.
	vt.Bind(vtab.Sources{
		Sessions: svc,
		Plans:    processor.Plans,
		Stats:    func() *stats.Catalog { return processor.Stats },
		Faults:   faults,
		Registry: fedReg,
		Stores:   store.Each,
		Memory:   processor.MemoryConfig(),
	})
	srv := wire.NewMediatorServer(svc)
	srv.WriteTimeout = *writeTimeout
	srv.IdleTimeout = *idleTimeout
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal("%v", err)
	}
	memNote := ""
	if m := processor.MemoryConfig(); m != nil {
		memNote = fmt.Sprintf(", mem budget %dB", m.Budget)
	}
	fmt.Printf("polygend: serving federation %q on %s (plan cache %d, optimizer %v, degrade %s%s)\n",
		fedName, bound, *cacheSize, processor.Optimize, policy, memNote)

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("metrics listener: %v", err)
		}
		defer mln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", vt.MetricsHandler())
		go func() { _ = http.Serve(mln, mux) }()
		fmt.Printf("polygend: metrics on http://%s/metrics\n", mln.Addr())
	}

	cmdutil.ServeUntilSignal(srv, *drain, "polygend")
	fmt.Println("polygend: bye")
}

// parseBytes parses a positive byte count with an optional K/M/G binary
// suffix ("64M" = 64 MiB). Plain digits are bytes. A count whose scaled
// value overflows int64 is rejected rather than wrapped.
func parseBytes(s string) (int64, error) {
	digits, mult := s, int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		digits, mult = s[:len(s)-1], 1<<10
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		digits, mult = s[:len(s)-1], 1<<20
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		digits, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a byte count (want digits with optional K/M/G suffix)", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("byte count must be positive, got %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte count %q overflows int64", s)
	}
	return n * mult, nil
}

func fatal(format string, args ...any) { cmdutil.Fatal(format, args...) }
