// Command storeload is the crash-recovery smoke driver for durable lqpd
// nodes: it proves that `kill -9` under driven write load never loses an
// acknowledged write and never invents, reorders or corrupts a row.
//
// The drill, end to end:
//
//  1. Seed a one-relation database from a generated CSV and start a real
//     lqpd subprocess on it with -data-dir (the system under test), plus an
//     in-process fault-free twin of the same seed.
//  2. Drive sequential wire inserts at both; every insert the daemon
//     acknowledges is also applied to the twin. At a seeded point mid-load,
//     SIGKILL the daemon — no drain, no flush. The first insert that errors
//     after the kill is "ambiguous": it may or may not have reached the log
//     before the process died.
//  3. Restart lqpd from the same -data-dir (recovery ignores the seed
//     flags) and diff the recovered relation cell-for-cell against the
//     twin: every acknowledged row must be present and identical, and the
//     only extra row tolerated is the ambiguous in-flight one.
//
// Usage:
//
//	go build -o /tmp/lqpd ./cmd/lqpd
//	go run ./cmd/storeload -lqpd /tmp/lqpd -rows 400 -seed 7
//
// Exit status 0 means the recovered database held exactly a prefix of
// acknowledged writes; anything else is a durability bug. -fsync and
// -compact-bytes pass through to the daemon so both sync policies and
// mid-load snapshot rotation get crashed against.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/wire"
)

const relation = "LOAD"

func main() {
	lqpdBin := flag.String("lqpd", "", "path to the lqpd binary under test (required)")
	rows := flag.Int("rows", 400, "inserts to drive; the kill lands in the middle half of them")
	seed := flag.Int64("seed", 1, "seed for the kill point and row payloads (same seed = same drill)")
	fsync := flag.String("fsync", "always", "fsync policy passed to the daemon (always or interval)")
	compactBytes := flag.Int64("compact-bytes", 4096, "daemon log-rotation threshold; small values crash against live compactions too")
	workDir := flag.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
	flag.Parse()

	if *lqpdBin == "" {
		fatal("-lqpd is required (build one with: go build -o /tmp/lqpd ./cmd/lqpd)")
	}
	dir := *workDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "storeload-*")
		if err != nil {
			fatal("%v", err)
		}
	}
	dataDir := filepath.Join(dir, "data")
	seedCSV := filepath.Join(dir, "seed.csv")
	if err := os.WriteFile(seedCSV, []byte(seedCSVText()), 0o644); err != nil {
		fatal("%v", err)
	}

	// The fault-free twin: same seed, never crashed, fed every
	// acknowledged insert.
	twin := catalog.NewDatabase("CRASH")
	if err := twin.LoadCSV(relation, strings.NewReader(seedCSVText()), "K"); err != nil {
		fatal("seeding twin: %v", err)
	}

	rng := rand.New(rand.NewSource(*seed))
	killAfter := *rows/4 + rng.Intn(*rows/2) // in the middle half of the load
	fmt.Printf("storeload: seed=%d rows=%d kill after insert %d (fsync=%s)\n", *seed, *rows, killAfter, *fsync)

	// Phase 1: daemon up, drive inserts, SIGKILL mid-load.
	daemon, addr := startLQPD(*lqpdBin, dataDir, seedCSV, *fsync, *compactBytes)
	client, err := wire.Dial(addr)
	if err != nil {
		fatal("dialing %s: %v", addr, err)
	}
	acked := 0
	var ackedKeys []string         // driven keys in acknowledgment order
	ambiguous := map[string]bool{} // keys whose insert errored mid-flight
	for i := 0; i < *rows; i++ {
		tup := loadRow(i, rng)
		if err := client.Insert(relation, []rel.Tuple{tup}); err != nil {
			// The daemon is (being) killed: this write and all later
			// ones are unacknowledged. Only this in-flight one may
			// still have reached the log.
			ambiguous[tup[0].Str()] = true
			fmt.Printf("storeload: insert %d unacknowledged after kill (%v)\n", i, err)
			break
		}
		acked++
		ackedKeys = append(ackedKeys, tup[0].Str())
		if err := twin.Insert(relation, tup); err != nil {
			fatal("twin insert: %v", err)
		}
		if i == killAfter {
			if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
				fatal("kill: %v", err)
			}
		}
	}
	client.Close()
	_ = daemon.Wait()
	if acked < killAfter {
		fatal("daemon died before the kill point: %d acked, wanted at least %d", acked, killAfter)
	}
	fmt.Printf("storeload: %d inserts acknowledged, daemon killed\n", acked)

	// Phase 2: recover from the same data dir and diff against the twin.
	daemon2, addr2 := startLQPD(*lqpdBin, dataDir, seedCSV, *fsync, *compactBytes)
	defer func() {
		_ = daemon2.Process.Signal(syscall.SIGTERM)
		_ = daemon2.Wait()
	}()
	client2, err := wire.Dial(addr2)
	if err != nil {
		fatal("dialing recovered daemon: %v", err)
	}
	defer client2.Close()
	cur, err := client2.OpenPlan(lqp.PlanOf(lqp.Retrieve(relation)))
	if err != nil {
		fatal("retrieving recovered %s: %v", relation, err)
	}
	got, err := rel.Drain(cur)
	if err != nil {
		fatal("retrieving recovered %s: %v", relation, err)
	}
	want, err := twin.Snapshot(relation)
	if err != nil {
		fatal("%v", err)
	}

	if msg := diff(got.Tuples, want.Tuples, ackedKeys, ambiguous, *fsync == "always"); msg != "" {
		fatal("recovery diff FAILED: %s", msg)
	}
	fmt.Printf("storeload: OK — recovered %d rows, cell-for-cell identical to the fault-free twin (+%d ambiguous in-flight allowed)\n",
		len(got.Tuples), len(ambiguous))
	if *workDir == "" {
		os.RemoveAll(dir)
	}
}

// seedCSVText is the pre-crash contents of the relation: proof that
// recovery preserves snapshot rows, not just logged ones.
func seedCSVText() string {
	var b strings.Builder
	b.WriteString("K,V,NOTE\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "S%04d,%d,seeded\n", i, i*11)
	}
	return b.String()
}

func loadRow(i int, rng *rand.Rand) rel.Tuple {
	return rel.Tuple{
		rel.String(fmt.Sprintf("K%06d", i)),
		rel.Int(int64(rng.Intn(1_000_000))),
		rel.String(fmt.Sprintf("driven payload %x", rng.Uint64())),
	}
}

// startLQPD launches the daemon and parses its bound address from the
// startup banner ("... on 127.0.0.1:PORT").
func startLQPD(bin, dataDir, seedCSV, fsync string, compactBytes int64) (*exec.Cmd, string) {
	cmd := exec.Command(bin,
		"-name", "CRASH", "-csv", relation+"="+seedCSV,
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", fsync,
		"-compact-bytes", fmt.Sprintf("%d", compactBytes),
	)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fatal("%v", err)
	}
	if err := cmd.Start(); err != nil {
		fatal("starting lqpd: %v", err)
	}
	bound := regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)
	sc := bufio.NewScanner(out)
	deadline := time.Now().Add(10 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		fmt.Printf("lqpd: %s\n", strings.TrimPrefix(line, "lqpd: "))
		if m := bound.FindStringSubmatch(line); m != nil {
			// Keep draining stdout so the daemon never blocks on a full pipe.
			go func() { _, _ = io.Copy(io.Discard, out) }()
			return cmd, m[1]
		}
		if time.Now().After(deadline) {
			break
		}
	}
	fatal("lqpd never announced a bound address")
	return nil, ""
}

// diff enforces the recovery invariant cell-for-cell: the recovered
// relation must be the seed rows plus exactly a prefix of the acknowledged
// writes — every recovered row byte-identical to the twin's, no surplus
// beyond an ambiguous in-flight insert, no gaps. With fsync=always the
// prefix must be complete (an acked write survives any crash); with
// fsync=interval a tail of acked writes may be lost, but never a middle
// one.
func diff(got, want []rel.Tuple, ackedKeys []string, ambiguous map[string]bool, requireAll bool) string {
	render := func(t rel.Tuple) string {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.String()
		}
		return strings.Join(parts, "|")
	}
	gotBy := make(map[string]string, len(got))
	for _, t := range got {
		gotBy[t[0].Str()] = render(t)
	}
	if len(gotBy) != len(got) {
		return fmt.Sprintf("recovered relation has %d rows but %d distinct keys (duplicated or replayed writes)", len(got), len(gotBy))
	}

	// Which acked writes survived? They must form a gapless prefix.
	ackedSet := make(map[string]bool, len(ackedKeys))
	for _, k := range ackedKeys {
		ackedSet[k] = true
	}
	survived := 0
	for survived < len(ackedKeys) {
		if _, ok := gotBy[ackedKeys[survived]]; !ok {
			break
		}
		survived++
	}
	for _, k := range ackedKeys[survived:] {
		if _, ok := gotBy[k]; ok {
			return fmt.Sprintf("recovered writes are not a prefix: row %s present but earlier acked row %s lost", k, ackedKeys[survived])
		}
	}
	if requireAll && survived != len(ackedKeys) {
		return fmt.Sprintf("fsync=always lost acknowledged writes: %d of %d survived (first lost: %s)", survived, len(ackedKeys), ackedKeys[survived])
	}

	// Every surviving row — seeded or acked — must be cell-identical.
	for _, t := range want {
		k := t[0].Str()
		g, ok := gotBy[k]
		if !ok {
			if ackedSet[k] {
				continue // lost tail, already proven contiguous
			}
			return fmt.Sprintf("seeded row %s missing after recovery", render(t))
		}
		if g != render(t) {
			return fmt.Sprintf("row %s corrupted: recovered %q, twin has %q", k, g, render(t))
		}
		delete(gotBy, k)
	}
	for k, g := range gotBy {
		if !ambiguous[k] {
			return fmt.Sprintf("recovered row %q was never acknowledged nor in flight", g)
		}
	}
	return ""
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "storeload: "+format+"\n", args...)
	os.Exit(1)
}
