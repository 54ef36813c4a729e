package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/lqp"
	"repro/internal/rel"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func toyConfig(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 7, trace: trace, dir: t.TempDir(), sizes: toySizes, clients: 2, ops: 20}
}

// TestSmoke runs every workload at toy size through the real TCP topology,
// untraced and with the shims on: the oracle comparison and the durability
// reopen pass, every metric BENCHMARK.json names comes out exactly once with
// a finite value, and the spans of every operation form a tree.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloadNames))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				res, err := run(toyConfig(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, correct %v: %v", res.attempted, res.failed, res.correct, res.problems)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 && m.Name != "trace.overhead_frac":
						t.Errorf("metric %s is %v", m.Name, got.Value)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s is zero", m.Name)
					case !valid.MatchString(m.Name):
						t.Errorf("metric name %q", m.Name)
					}
				}
				if trace {
					checkSpanTrees(t, res.spans)
				}
			})
		}
	}
}

// checkSpanTrees requires every operation's spans to form one tree rooted at
// its client span.
func checkSpanTrees(t *testing.T, spans []span) {
	t.Helper()
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	roots := make(map[int64]int)
	children := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Op == 0 {
			continue // a background fsync belongs to no operation
		}
		if s.Parent == 0 {
			roots[s.Op]++
			if s.ID != s.Op || (s.Name != "client.query" && s.Name != "client.insert") {
				t.Errorf("span %d (%s) is a root but not a client span", s.ID, s.Name)
			}
			continue
		}
		children++
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s): parent %d was never recorded", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			t.Errorf("span %d (%s) of operation %d hangs under operation %d", s.ID, s.Name, s.Op, p.Op)
		case p.Start > s.Start:
			t.Errorf("span %d (%s) starts before its parent %s", s.ID, s.Name, p.Name)
		}
	}
	if len(roots) == 0 || children == 0 {
		t.Fatalf("%d operations and %d child spans recorded", len(roots), children)
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("operation %d has %d roots", op, n)
		}
	}
}

// TestScheduleFromSeed: one seed gives one schedule, another seed another.
func TestScheduleFromSeed(t *testing.T) {
	schedule := func(name string, seed int64) string {
		cfg := toyConfig(t, name, false)
		cfg.seed = seed
		s, err := setUp(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.t.close()
		var out string
		for c := 0; c < 2; c++ {
			next := s.w.stream(c, 2)
			for i := 0; i < 100; i++ {
				o := next()
				out += fmt.Sprintln(c, o.insert, o.text, o.known, o.want, o.atLeast, o.shard, o.rows)
			}
		}
		return out
	}
	for _, name := range workloadNames {
		a, b, other := schedule(name, 7), schedule(name, 7), schedule(name, 8)
		if a != b {
			t.Errorf("%s: two schedules from seed 7 differ", name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 give the same schedule", name)
		}
	}
}

// TestCountsRepeat: the counts that depend on neither timing nor interleaving
// repeat bit for bit across two runs of one seed. ingest-query runs with one
// client here: with two writers the moment a log rotates depends on how their
// inserts interleave, and the directory's size with it.
func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		names := []string{"translate.plan_cache_hit_ratio", "pqp.rows_out_per_op"}
		cfg := toyConfig(t, name, true)
		cfg.ops = 10
		if name == "ingest-query" {
			names = append(names, "stored_bytes_per_user_byte", "store.written_bytes_per_user_byte", "store.compactions")
			cfg.clients = 1
		}
		a, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.dir = t.TempDir()
		b, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.attempted != b.attempted {
			t.Errorf("%s: %d operations attempted, then %d", name, a.attempted, b.attempted)
		}
		for _, m := range names {
			if a.metrics[m] != b.metrics[m] || a.metrics[m].Value == 0 {
				t.Errorf("%s: %s is %v, then %v", name, m, a.metrics[m].Value, b.metrics[m].Value)
			}
		}
	}
}

func TestIntervals(t *testing.T) {
	a := merged([]interval{{10, 20}, {0, 5}, {18, 30}, {30, 31}, {40, 50}})
	if want := []interval{{0, 5}, {10, 31}, {40, 50}}; !reflect.DeepEqual(a, want) {
		t.Fatalf("merged: %v, want %v", a, want)
	}
	b := []interval{{3, 12}, {15, 16}, {45, 60}}
	if got, want := minus(a, b), []interval{{0, 3}, {12, 15}, {16, 31}, {40, 45}}; !reflect.DeepEqual(got, want) {
		t.Errorf("minus: %v, want %v", got, want)
	}
	if got, want := clip(a, 4, 42), []interval{{4, 5}, {10, 31}, {40, 42}}; !reflect.DeepEqual(got, want) {
		t.Errorf("clip: %v, want %v", got, want)
	}
	if got := length(a); got != 36 {
		t.Errorf("length: %d, want 36", got)
	}
}

// TestOpTag: the span reference rides every kind of local operation and
// comes off again without a trace.
func TestOpTag(t *testing.T) {
	ref := spanRef{op: 12345, span: 67890}
	for _, op := range []lqp.Op{
		lqp.Retrieve("FACT"),
		lqp.Select("FACT", "FK", rel.ThetaEQ, rel.String("F1")),
		lqp.Restrict("FACT", "DK", rel.ThetaEQ, "MK"),
		lqp.Project("FACT", "FK", "VAL"),
	} {
		clean, got, ok := untagOp(tagOp(op, ref))
		if !ok || got != ref || !reflect.DeepEqual(clean, op) {
			t.Errorf("%v: untagged to %v with %v (%v)", op, clean, got, ok)
		}
		if _, _, ok := untagOp(op); ok {
			t.Errorf("%v: an untagged operation reads as tagged", op)
		}
	}
}
