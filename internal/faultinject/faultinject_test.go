package faultinject

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

func testDB(rows int) *catalog.Database {
	db := catalog.NewDatabase("AD")
	db.MustCreate("ALUMNUS", rel.SchemaOf("AID#", "ANAME"), "AID#")
	tuples := make([]rel.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		tuples = append(tuples, rel.Tuple{
			rel.String(fmt.Sprintf("A%05d", i)),
			rel.String(fmt.Sprintf("name-%d", i)),
		})
	}
	if err := db.Insert("ALUMNUS", tuples...); err != nil {
		panic(err)
	}
	return db
}

func TestCadenceDeterminism(t *testing.T) {
	// The same (profile, seed) pair must inject the same faults on the same
	// calls — a failing chaos run replays.
	run := func(seed int64) []bool {
		f := New(lqp.NewLocal(testDB(4)), Profile{Seed: seed, ErrEvery: 3})
		outcomes := make([]bool, 12)
		for i := range outcomes {
			_, err := f.Relations()
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(42), run(42)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: run A faulted=%v, run B faulted=%v — not deterministic", i, a[i], b[i])
		}
		if a[i] {
			faults++
		}
	}
	if faults != 4 {
		t.Errorf("ErrEvery=3 over 12 calls injected %d faults, want 4", faults)
	}
	// A different seed shifts the phase but keeps the rate.
	c := run(43)
	cf := 0
	for _, hit := range c {
		if hit {
			cf++
		}
	}
	if cf != 4 {
		t.Errorf("seed 43 injected %d faults, want 4", cf)
	}
}

func TestInjectedErrorsAreTyped(t *testing.T) {
	f := New(lqp.NewLocal(testDB(2)), Profile{ErrEvery: 1})
	_, err := f.Open(lqp.Retrieve("ALUMNUS"))
	if err == nil || !IsInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
	if IsInjected(io.EOF) {
		t.Errorf("io.EOF misdetected as injected")
	}
	errs, _, _, _ := f.Injected()
	if errs != 1 {
		t.Errorf("errs = %d", errs)
	}
}

func TestSlowInjectsLatencyNotFailure(t *testing.T) {
	f := New(lqp.NewLocal(testDB(2)), Profile{SlowEvery: 1, Latency: 30 * time.Millisecond})
	start := time.Now()
	cur, err := f.Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := rel.Drain(cur); err != nil || r.Cardinality() != 2 {
		t.Fatalf("Open drained = %v, %v", r, err)
	}
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Errorf("latency spike not injected (took %v)", e)
	}
	_, _, slows, _ := f.Injected()
	if slows != 1 {
		t.Errorf("slows = %d", slows)
	}
}

func TestHangBlocksThenFails(t *testing.T) {
	f := New(lqp.NewLocal(testDB(2)), Profile{HangEvery: 1, Hang: 20 * time.Millisecond})
	start := time.Now()
	_, err := f.Open(lqp.Retrieve("ALUMNUS"))
	if err == nil || !IsInjected(err) {
		t.Fatalf("err = %v, want injected hang", err)
	}
	if e := time.Since(start); e < 20*time.Millisecond {
		t.Errorf("hang returned after %v, want >= 20ms", e)
	}
}

func TestCutCursorDiesMidStream(t *testing.T) {
	f := New(lqp.NewLocal(testDB(700)), Profile{CutEvery: 1, CutAfter: 2})
	cur, err := f.Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := 0
	batches := 0
	for {
		b, err := cur.Next()
		if err != nil {
			if !IsInjected(err) {
				t.Fatalf("cursor died with %v, want injected cut", err)
			}
			break
		}
		batches++
		rows += len(b)
	}
	if batches != 2 {
		t.Errorf("stream delivered %d batches before the cut, want 2", batches)
	}
	if rows != 512 {
		t.Errorf("delivered %d rows, want 512", rows)
	}
	if _, _, _, cuts := f.Injected(); cuts != 1 {
		t.Errorf("cuts = %d", cuts)
	}
}

func TestPingDeadAndHungReplicas(t *testing.T) {
	dead := New(lqp.NewLocal(testDB(2)), Profile{ErrEvery: 1})
	if err := dead.Ping(time.Second); err == nil || !IsInjected(err) {
		t.Errorf("dead replica ping = %v, want injected", err)
	}

	hung := New(lqp.NewLocal(testDB(2)), Profile{HangEvery: 1, Hang: 10 * time.Second})
	start := time.Now()
	err := hung.Ping(30 * time.Millisecond)
	if err == nil {
		t.Errorf("hung replica ping succeeded")
	}
	if e := time.Since(start); e > time.Second {
		t.Errorf("ping ignored its deadline (took %v)", e)
	}

	ok := New(lqp.NewLocal(testDB(2)), Profile{})
	if err := ok.Ping(time.Second); err != nil {
		t.Errorf("healthy replica ping = %v", err)
	}

	cadence := New(lqp.NewLocal(testDB(2)), Profile{PingErrEvery: 2})
	fails := 0
	for i := 0; i < 10; i++ {
		if cadence.Ping(time.Second) != nil {
			fails++
		}
	}
	if fails != 5 {
		t.Errorf("PingErrEvery=2 failed %d/10 probes, want 5", fails)
	}
}

func TestFlakyForwardsCapabilities(t *testing.T) {
	f := New(lqp.NewLocal(testDB(7)), Profile{})
	if f.Name() != "AD" {
		t.Errorf("Name = %q", f.Name())
	}
	rels, err := f.Relations()
	if err != nil || len(rels) != 1 {
		t.Errorf("Relations = %v, %v", rels, err)
	}
	st, err := f.Stats()
	if err != nil || len(st) != 1 || st[0].Rows != 7 {
		t.Errorf("Stats = %+v, %v", st, err)
	}
	cur, err := f.OpenPlan(lqp.Plan{Ops: []lqp.Op{lqp.Retrieve("ALUMNUS")}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rel.Drain(cur)
	if err != nil || out.Cardinality() != 7 {
		t.Errorf("OpenPlan drained = %v, %v", out, err)
	}
}

func TestFlakyConnCutsAfterReads(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	flaky := WrapConn(client, ConnProfile{CutAfterReads: 2})
	defer flaky.Close()

	go func() {
		for i := 0; i < 3; i++ {
			server.Write([]byte("x"))
		}
	}()

	buf := make([]byte, 1)
	for i := 0; i < 2; i++ {
		if _, err := flaky.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if _, err := flaky.Read(buf); err != io.ErrClosedPipe {
		t.Fatalf("read past cut = %v, want io.ErrClosedPipe", err)
	}
	if !flaky.Cut() {
		t.Errorf("Cut() = false after the cut")
	}
	// Every subsequent operation fails too — the conn is dead, not flaky.
	if _, err := flaky.Write([]byte("y")); err != io.ErrClosedPipe {
		t.Errorf("write after cut = %v", err)
	}
}
