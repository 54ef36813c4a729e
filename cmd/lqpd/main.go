// Command lqpd serves one of the paper's local databases as a Local Query
// Processor over TCP (Figure 1's LQP boxes, networked). The PQP — cmd/polygen
// with -remote, or any wire.Client — connects to it and issues local
// operations; the database's contents never leave the process except as
// query results.
//
// Usage:
//
//	lqpd -db AD -addr 127.0.0.1:7001
//	lqpd -db PD -addr 127.0.0.1:7002
//	lqpd -db CD -addr 127.0.0.1:7003
//
// A custom database can be served from CSV files or a gob snapshot instead:
//
//	lqpd -name MYDB -addr :7010 -csv 'REL1=/path/a.csv,REL2=/path/b.csv'
//	lqpd -snapshot /path/db.snapshot -addr :7011
//
// With -save the chosen database is also written to a snapshot file on
// startup (handy for turning the embedded paper databases into files).
//
// With -shard i/N the daemon serves only horizontal slice i of the chosen
// database (row placement by canonical-ID hash). N such daemons together
// hold the database exactly once, and a polygend started with -shards
// scatters every retrieval across them and gathers one logical answer:
//
//	lqpd -db AD -addr :7001 -shard 0/2
//	lqpd -db AD -addr :7002 -shard 1/2
//
// The -chaos-* flags turn the daemon into a deliberately unreliable replica
// for fault-tolerance testing: deterministic (seeded) injected errors,
// latency spikes, hangs, mid-stream cursor cuts and transport cuts, so the
// federation layer's retries, hedging and failover can be exercised against
// a live wire:
//
//	lqpd -db AD -addr :7001 -chaos-err-every 5 -chaos-cut-every 3 -chaos-seed 42
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"net"

	"repro/internal/catalog"
	"repro/internal/cmdutil"
	"repro/internal/faultinject"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/store"
	"repro/internal/wire"
)

func main() {
	dbName := flag.String("db", "", "paper database to serve: AD, PD or CD")
	name := flag.String("name", "", "name for a custom CSV-backed database")
	csvSpec := flag.String("csv", "", "comma-separated REL=path.csv pairs for a custom database")
	snapshot := flag.String("snapshot", "", "serve a database from a gob snapshot file")
	save := flag.String("save", "", "write the served database to a snapshot file before serving")
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	shardSpec := flag.String("shard", "", `serve one horizontal shard of the chosen database: "i/N" keeps only slice i of N (placement by canonical-ID hash, matching polygend -shards; every row lands on exactly one of the N daemons)`)
	dataDir := flag.String("data-dir", "", "durable mode: persist the database as snapshot + write-ahead segment log in this directory; an empty dir is seeded from -db/-csv/-snapshot (post -shard slicing), a non-empty one is recovered from disk — snapshot plus log tail, truncated at the first torn record — and the seed flags are ignored")
	fsyncMode := flag.String("fsync", "always", `write-ahead log fsync policy: "always" (fsync before every acknowledgment) or "interval" (group fsync on -fsync-interval; a crash may lose the last interval's acknowledged writes)`)
	fsyncInterval := flag.Duration("fsync-interval", 50*time.Millisecond, "group-commit period for -fsync=interval")
	compactBytes := flag.Int64("compact-bytes", 0, "rotate snapshot + log once the log passes this size (0 = engine default 64MiB, negative disables auto-compaction)")
	writeTimeout := flag.Duration("write-timeout", wire.DefaultTimeout, "per-message write deadline (a client that stops reading is dropped)")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = keep idle connections open)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	maxProcs := flag.Int("max-procs", 0, "cap the daemon's scheduler parallelism (GOMAXPROCS; 0 = all cores) — on shared hosts, the cores left over are what a co-located polygend gets")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the deterministic fault-injection cadence")
	chaosErrEvery := flag.Int("chaos-err-every", 0, "inject a transient error every Nth LQP call (0 = off)")
	chaosSlowEvery := flag.Int("chaos-slow-every", 0, "inject -chaos-latency before every Nth LQP call (0 = off)")
	chaosLatency := flag.Duration("chaos-latency", 50*time.Millisecond, "latency spike for -chaos-slow-every")
	chaosHangEvery := flag.Int("chaos-hang-every", 0, "hang every Nth LQP call for -chaos-hang, then fail it (0 = off)")
	chaosHang := flag.Duration("chaos-hang", 5*time.Second, "hang duration for -chaos-hang-every")
	chaosCutEvery := flag.Int("chaos-cut-every", 0, "cut every Nth opened cursor mid-stream (0 = off)")
	chaosCutAfter := flag.Int("chaos-cut-after", 1, "batches a cut cursor delivers before dying")
	chaosPingErrEvery := flag.Int("chaos-ping-err-every", 0, "fail every Nth health-probe ping (0 = off)")
	chaosConnCutReads := flag.Int("chaos-conn-cut-reads", 0, "kill each accepted connection after its Nth read (0 = off)")
	chaosConnCutWrites := flag.Int("chaos-conn-cut-writes", 0, "kill each accepted connection after its Nth write (0 = off)")
	flag.Parse()

	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
	}

	var db *catalog.Database
	switch {
	case *snapshot != "":
		var err error
		db, err = catalog.OpenFile(*snapshot)
		if err != nil {
			fatal("loading snapshot: %v", err)
		}
	case *dbName != "":
		fed := paperdata.New()
		switch *dbName {
		case paperdata.AD:
			db = fed.AD
		case paperdata.PD:
			db = fed.PD
		case paperdata.CD:
			db = fed.CD
		default:
			fatal("unknown paper database %q (want AD, PD or CD)", *dbName)
		}
	case *name != "" && *csvSpec != "":
		db = catalog.NewDatabase(*name)
		for _, pair := range strings.Split(*csvSpec, ",") {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				fatal("bad -csv entry %q (want REL=path)", pair)
			}
			relName, path := pair[:eq], pair[eq+1:]
			f, err := os.Open(path)
			if err != nil {
				fatal("opening %s: %v", path, err)
			}
			if err := db.LoadCSV(relName, f); err != nil {
				fatal("loading %s: %v", path, err)
			}
			f.Close()
		}
	default:
		fatal("one of -db, -snapshot, or both -name and -csv is required")
	}
	if *save != "" {
		if err := db.SaveFile(*save); err != nil {
			fatal("saving snapshot: %v", err)
		}
		fmt.Printf("lqpd: wrote snapshot of %s to %s\n", db.Name(), *save)
	}

	// Sharding slices after -save: the snapshot stays the whole database,
	// the served catalog is the slice.
	shardNote := ""
	if *shardSpec != "" {
		var idx, n int
		if c, err := fmt.Sscanf(*shardSpec, "%d/%d", &idx, &n); err != nil || c != 2 {
			fatal("bad -shard %q (want i/N, e.g. 0/4)", *shardSpec)
		}
		slice, err := federation.Slice(db, idx, n)
		if err != nil {
			fatal("%v", err)
		}
		db = slice
		shardNote = fmt.Sprintf(" shard %d/%d", idx, n)
	}

	var served lqp.LQP = lqp.NewLocal(db)
	var st *store.Store
	durableNote := ""
	if *dataDir != "" {
		mode, err := store.ParseFsyncMode(*fsyncMode)
		if err != nil {
			fatal("%v", err)
		}
		st, err = store.Open(*dataDir, db.Name(), db, store.Options{
			Fsync:         mode,
			FsyncInterval: *fsyncInterval,
			CompactBytes:  *compactBytes,
		})
		if err != nil {
			fatal("opening data dir: %v", err)
		}
		db = st.DB() // recovery may supersede the seed flags
		dur := store.NewLQP(st)
		store.Register(db.Name(), st)
		served = dur
		rst := st.Stats()
		durableNote = fmt.Sprintf(" durable[%s gen=%d replayed=%d truncated=%dB fsync=%s]",
			*dataDir, rst.Generation, rst.ReplayRecords, rst.TruncatedBytes, mode)
	}
	profile := faultinject.Profile{
		Seed:         *chaosSeed,
		ErrEvery:     *chaosErrEvery,
		SlowEvery:    *chaosSlowEvery,
		Latency:      *chaosLatency,
		HangEvery:    *chaosHangEvery,
		Hang:         *chaosHang,
		CutEvery:     *chaosCutEvery,
		CutAfter:     *chaosCutAfter,
		PingErrEvery: *chaosPingErrEvery,
	}
	chaotic := *chaosErrEvery > 0 || *chaosSlowEvery > 0 || *chaosHangEvery > 0 ||
		*chaosCutEvery > 0 || *chaosPingErrEvery > 0
	if chaotic {
		served = faultinject.New(served, profile)
	}
	srv := wire.NewServerFor(served)
	srv.WriteTimeout = *writeTimeout
	srv.IdleTimeout = *idleTimeout
	if *chaosConnCutReads > 0 || *chaosConnCutWrites > 0 {
		connProfile := faultinject.ConnProfile{
			CutAfterReads:  *chaosConnCutReads,
			CutAfterWrites: *chaosConnCutWrites,
		}
		srv.ConnHook = func(conn net.Conn) net.Conn { return faultinject.WrapConn(conn, connProfile) }
		chaotic = true
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal("%v", err)
	}
	chaosNote := ""
	if chaotic {
		chaosNote = fmt.Sprintf(" [CHAOS seed=%d]", *chaosSeed)
	}
	fmt.Printf("lqpd: serving %s (%s)%s%s on %s%s\n", db.Name(), strings.Join(db.Relations(), ", "), shardNote, durableNote, bound, chaosNote)

	cmdutil.ServeUntilSignal(srv, *drain, "lqpd")
	if st != nil {
		if err := st.Close(); err != nil {
			fatal("closing store: %v", err)
		}
	}
}

func fatal(format string, args ...any) { cmdutil.Fatal(format, args...) }
