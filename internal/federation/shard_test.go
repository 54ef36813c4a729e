package federation

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

var shardCounts = []int{1, 2, 4, 7}

// shardDB is testDB plus a keyless relation and a relation whose projection
// collapses rows — the shapes that stress whole-tuple placement and
// cross-shard duplicate elimination.
func shardDB(rows int) *catalog.Database {
	db := testDB(rows)
	db.MustCreate("GRADES", rel.SchemaOf("GID", "GRADE"), "GID")
	grades := make([]rel.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		grades = append(grades, rel.Tuple{
			rel.String(shardID("G", i)),
			rel.Int(int64(i % 3)), // Project [GRADE] collapses to 3 rows
		})
	}
	if err := db.Insert("GRADES", grades...); err != nil {
		panic(err)
	}
	db.MustCreate("LOG", rel.SchemaOf("EVENT", "N")) // no key: whole-tuple placement
	logs := make([]rel.Tuple, 0, rows)
	for i := 0; i < rows; i++ {
		logs = append(logs, rel.Tuple{rel.String("ev"), rel.Int(int64(i))})
	}
	if err := db.Insert("LOG", logs...); err != nil {
		panic(err)
	}
	return db
}

func shardID(prefix string, i int) string { return fmt.Sprintf("%s%04d", prefix, i) }

// sortedKeys renders a relation's tuples as sorted canonical keys — the
// order-insensitive comparison form.
func sortedKeys(r *rel.Relation) []string {
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func equalRows(t *testing.T, label string, got, want *rel.Relation) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d rows, want %d", label, len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: row %d diverges:\n  got  %q\n  want %q", label, i, g[i], w[i])
			return
		}
	}
}

// TestSliceReconstructs proves the slices partition the catalog exactly:
// disjoint by placement, and their union is the original, relation by
// relation.
func TestSliceReconstructs(t *testing.T) {
	db := shardDB(300)
	for _, n := range shardCounts {
		m := NewShardMap(db, n)
		for _, name := range db.Relations() {
			schema, orig, err := db.View(name)
			if err != nil {
				t.Fatalf("View(%s): %v", name, err)
			}
			place := m.placement(name, schema)
			var union []rel.Tuple
			total := 0
			for i := 0; i < n; i++ {
				slice, err := Slice(db, i, n)
				if err != nil {
					t.Fatalf("Slice(%d/%d): %v", i, n, err)
				}
				key, _ := db.Key(name)
				skey, err := slice.Key(name)
				if err != nil || len(skey) != len(key) {
					t.Fatalf("slice %d/%d of %s lost its key: %v %v", i, n, name, skey, err)
				}
				_, tuples, err := slice.View(name)
				if err != nil {
					t.Fatalf("slice View(%s): %v", name, err)
				}
				total += len(tuples)
				for _, tup := range tuples {
					if got := place(tup); got != i {
						t.Fatalf("slice %d/%d of %s holds tuple placed on shard %d", i, n, name, got)
					}
				}
				union = append(union, tuples...)
			}
			if total != len(orig) {
				t.Fatalf("%d shards of %s hold %d rows, want %d", n, name, total, len(orig))
			}
			u := &rel.Relation{Schema: schema, Tuples: union}
			o := &rel.Relation{Schema: schema, Tuples: orig}
			equalRows(t, name, u, o)
		}
	}
}

func TestSliceRejectsBadIndex(t *testing.T) {
	db := testDB(10)
	if _, err := Slice(db, 3, 3); err == nil {
		t.Error("Slice(3,3) should reject an out-of-range index")
	}
	if _, err := Slice(db, -1, 3); err == nil {
		t.Error("Slice(-1,3) should reject a negative index")
	}
	if _, err := Slice(db, 0, 0); err == nil {
		t.Error("Slice(0,0) should reject a zero shard count")
	}
}

// TestShardHashNormalization pins the placement hash to the canonical datum:
// +0 and -0 floats are one datum, equal strings hash equally, and the hash
// is a pure function of the value (no per-process seed).
func TestShardHashNormalization(t *testing.T) {
	if ShardHash(rel.Float(0)) != ShardHash(rel.Float(negZero())) {
		t.Error("+0 and -0 place on different shards")
	}
	if ShardHash(rel.String("x")) != ShardHash(rel.String("x")) {
		t.Error("equal strings hash apart")
	}
	if ShardHash(rel.String("x")) == ShardHash(rel.String("y")) {
		t.Error("distinct strings collide (suspicious)")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// newShardedFixture slices db across n shards and registers both the
// unsharded and the sharded source in fresh registries, returning the two
// LQP views plus the shard-level fakes for call accounting.
func newShardedFixture(t *testing.T, db *catalog.Database, n int) (unsharded, sharded lqp.LQP, fakes []*fake, src *ShardedSource) {
	t.Helper()
	reg := NewRegistry(testConfig())
	reg.Add("AD", lqp.NewLocal(db))
	unshardedSrc, _ := reg.Source("AD")

	sreg := NewRegistry(testConfig())
	groups := make([][]lqp.LQP, n)
	fakes = make([]*fake, n)
	for i := 0; i < n; i++ {
		slice, err := Slice(db, i, n)
		if err != nil {
			t.Fatalf("Slice(%d/%d): %v", i, n, err)
		}
		fakes[i] = newFake(slice, nil)
		groups[i] = []lqp.LQP{fakes[i]}
	}
	src = sreg.AddSharded("AD", groups...)
	return unshardedSrc, src, fakes, src
}

// TestSliceSnapshotRoundTrip: a horizontal slice survives the snapshot
// file format — `lqpd -shard i/N` state saved with catalog.SaveFile and
// reopened serves exactly the same slice: same name, same keys, every
// relation cell-for-cell identical, and every reopened row still placed on
// its own shard. This is the deployment path where each shard daemon is
// (re)started from a snapshot file instead of re-slicing the full dataset.
func TestSliceSnapshotRoundTrip(t *testing.T) {
	db := shardDB(120)
	const n = 3
	for i := 0; i < n; i++ {
		slice, err := Slice(db, i, n)
		if err != nil {
			t.Fatalf("Slice(%d/%d): %v", i, n, err)
		}
		path := t.TempDir() + "/slice.snapshot"
		if err := slice.SaveFile(path); err != nil {
			t.Fatalf("SaveFile(slice %d/%d): %v", i, n, err)
		}
		got, err := catalog.OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile(slice %d/%d): %v", i, n, err)
		}
		if got.Name() != slice.Name() {
			t.Errorf("reopened slice %d/%d named %q, want %q", i, n, got.Name(), slice.Name())
		}
		m := NewShardMap(db, n)
		for _, name := range slice.Relations() {
			schema, want, err := slice.View(name)
			if err != nil {
				t.Fatalf("slice View(%s): %v", name, err)
			}
			gotSchema, tuples, err := got.View(name)
			if err != nil {
				t.Fatalf("reopened View(%s): %v", name, err)
			}
			if gotSchema.String() != schema.String() {
				t.Errorf("%s schema %s, want %s", name, gotSchema, schema)
			}
			wantKey, _ := slice.Key(name)
			gotKey, err := got.Key(name)
			if err != nil || fmt.Sprint(gotKey) != fmt.Sprint(wantKey) {
				t.Errorf("%s key %v (%v), want %v", name, gotKey, err, wantKey)
			}
			equalRows(t, fmt.Sprintf("slice %d/%d %s", i, n, name),
				&rel.Relation{Schema: gotSchema, Tuples: tuples},
				&rel.Relation{Schema: schema, Tuples: want})
			place := m.placement(name, gotSchema)
			for _, tup := range tuples {
				if p := place(tup); p != i {
					t.Fatalf("reopened slice %d/%d of %s holds a tuple placed on shard %d", i, n, name, p)
				}
			}
		}
	}
}

// TestShardedSourceMatchesUnsharded is the core property: every operation
// and every pushed plan, materialized and streamed, answers cell-for-cell
// identically (as a multiset) to the unsharded source at every shard count.
func TestShardedSourceMatchesUnsharded(t *testing.T) {
	db := shardDB(500)
	ops := []lqp.Op{
		lqp.Retrieve("ALUMNUS"),
		lqp.Retrieve("LOG"),
		lqp.Select("ALUMNUS", "AID#", rel.ThetaEQ, rel.String("A00007")),
		lqp.Select("ALUMNUS", "ANAME", rel.ThetaEQ, rel.String("name-13")),
		lqp.Select("GRADES", "GRADE", rel.ThetaLT, rel.Int(2)),
		lqp.Restrict("ALUMNUS", "AID#", rel.ThetaNE, "ANAME"),
		lqp.Project("GRADES", "GRADE"),
		lqp.Project("ALUMNUS", "ANAME"),
	}
	plans := []lqp.Plan{
		lqp.PlanOf(lqp.Retrieve("GRADES"), lqp.Select("GRADES", "GRADE", rel.ThetaLT, rel.Int(2)), lqp.Project("GRADES", "GRADE")),
		lqp.PlanOf(lqp.Retrieve("ALUMNUS"), lqp.Select("ALUMNUS", "AID#", rel.ThetaEQ, rel.String("A00042"))),
		lqp.PlanOf(lqp.Select("ALUMNUS", "AID#", rel.ThetaEQ, rel.String("A00042")), lqp.Project("ALUMNUS", "ANAME")),
		lqp.PlanOf(lqp.Retrieve("LOG"), lqp.Select("LOG", "N", rel.ThetaLT, rel.Int(100))),
	}
	for _, n := range shardCounts {
		plain, sharded, _, src := newShardedFixture(t, db, n)
		if _, err := src.Stats(); err != nil { // prime the placement map
			t.Fatalf("Stats: %v", err)
		}
		for _, op := range ops {
			want, err := drainOpen(plain.Open(op))
			if err != nil {
				t.Fatalf("unsharded %v: %v", op, err)
			}
			got, err := drainOpen(sharded.Open(op))
			if err != nil {
				t.Fatalf("sharded(%d) Open %v: %v", n, op, err)
			}
			equalRows(t, op.String(), got, want)
		}
		for _, p := range plans {
			want, err := drainOpen(plain.OpenPlan(p))
			if err != nil {
				t.Fatalf("unsharded plan %v: %v", p, err)
			}
			got, err := drainOpen(sharded.OpenPlan(p))
			if err != nil {
				t.Fatalf("sharded(%d) OpenPlan %v: %v", n, p, err)
			}
			equalRows(t, p.String(), got, want)
		}
	}
}

// TestShardedFiltersAfterProject: pushed plans that filter after a Project
// scatter to three shards and answer exactly what the same plan gives over
// the unsharded in-process relation — including the
// cross-shard duplicates the projection creates, which the gather drops.
func TestShardedFiltersAfterProject(t *testing.T) {
	db := shardDB(600)
	db.MustCreate("PAIRS", rel.SchemaOf("K", "A", "B"), "K")
	pairs := make([]rel.Tuple, 0, 600)
	for i := 0; i < 600; i++ {
		pairs = append(pairs, rel.Tuple{rel.String(shardID("P", i)), rel.Int(int64(i % 7)), rel.Int(int64(i % 5))})
	}
	if err := db.Insert("PAIRS", pairs...); err != nil {
		t.Fatal(err)
	}
	_, sharded, _, src := newShardedFixture(t, db, 3)
	if _, err := src.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	plans := []lqp.Plan{
		lqp.PlanOf(lqp.Retrieve("LOG"), lqp.Project("LOG", "EVENT", "N"), lqp.Select("LOG", "N", rel.ThetaLT, rel.Int(40))),
		lqp.PlanOf(lqp.Retrieve("GRADES"), lqp.Project("GRADES", "GRADE"), lqp.Select("GRADES", "GRADE", rel.ThetaGE, rel.Int(1))),
		lqp.PlanOf(lqp.Retrieve("PAIRS"), lqp.Project("PAIRS", "A", "B"), lqp.Restrict("PAIRS", "A", rel.ThetaGT, "B"), lqp.Project("PAIRS", "A")),
	}
	for _, p := range plans {
		got, err := drainOpen(sharded.OpenPlan(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		want, err := drainOpen(lqp.NewLocal(db).OpenPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Tuples) == 0 {
			t.Fatalf("%s: empty reference answer proves nothing", p)
		}
		equalRows(t, p.String(), got, want)
	}
}

// TestShardPruning proves a string-equality Select on the placement key
// touches exactly one shard once the map is primed — and that the pruned
// shard is the one holding the row.
func TestShardPruning(t *testing.T) {
	db := shardDB(200)
	_, _, fakes, src := newShardedFixture(t, db, 4)
	if _, err := src.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	before := make([]int64, len(fakes))
	for i, f := range fakes {
		before[i] = f.calls.Load()
	}
	op := lqp.Select("ALUMNUS", "AID#", rel.ThetaEQ, rel.String("A00007"))
	r, err := drainOpen(src.Open(op))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(r.Tuples) != 1 {
		t.Fatalf("pruned select returned %d rows, want 1", len(r.Tuples))
	}
	touched := 0
	for i, f := range fakes {
		if f.calls.Load() > before[i] {
			touched++
		}
	}
	if touched != 1 {
		t.Errorf("pruned select touched %d shards, want 1", touched)
	}
	if want := ShardOf(ShardHash(rel.String("A00007")), 4); fakes[want].calls.Load() == before[want] {
		t.Errorf("pruned select skipped the owning shard %d", want)
	}

	// A non-key select must consult every shard.
	for i, f := range fakes {
		before[i] = f.calls.Load()
	}
	if _, err := drainOpen(src.Open(lqp.Select("ALUMNUS", "ANAME", rel.ThetaEQ, rel.String("name-7")))); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	for i, f := range fakes {
		if f.calls.Load() == before[i] {
			t.Errorf("non-key select skipped shard %d", i)
		}
	}

	// Numeric equality must not prune: Int and Float compare equal across
	// kinds but hash apart.
	m := src.shardMap()
	if got := m.PrunePlan(lqp.PlanOf(lqp.Select("GRADES", "GID", rel.ThetaEQ, rel.Int(7)))); got != -1 {
		t.Errorf("numeric-const select pruned to shard %d, want -1", got)
	}
}

// TestShardExhaustionNamesLogicalSource: a shard losing all replicas
// surfaces as the logical source's exhaustion, so the degradation policy
// drops the whole source — never a silent shard-sized hole in the answer.
func TestShardExhaustionNamesLogicalSource(t *testing.T) {
	db := shardDB(100)
	sreg := NewRegistry(testConfig())
	var groups [][]lqp.LQP
	for i := 0; i < 2; i++ {
		slice, err := Slice(db, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			groups = append(groups, []lqp.LQP{newFake(slice, func(int64) error { return io.ErrUnexpectedEOF })})
		} else {
			groups = append(groups, []lqp.LQP{newFake(slice, nil)})
		}
	}
	src := sreg.AddSharded("AD", groups...)

	_, err := drainOpen(src.Open(lqp.Retrieve("ALUMNUS")))
	assertExhausted(t, "Open", err)
}

func assertExhausted(t *testing.T, label string, err error) {
	t.Helper()
	ex, ok := err.(*ExhaustedError)
	if !ok {
		t.Fatalf("%s: error %v (%T), want *ExhaustedError", label, err, err)
	}
	if ex.Source != "AD" {
		t.Errorf("%s: exhaustion names %q, want logical source AD", label, ex.Source)
	}
}

// TestShardReplicaFailover: each shard is itself a replica set — killing
// one replica of one shard must not change the answer.
func TestShardReplicaFailover(t *testing.T) {
	db := shardDB(200)
	reg := NewRegistry(testConfig())
	reg.Add("AD", lqp.NewLocal(db))
	plain, _ := reg.Source("AD")
	want, err := drainOpen(plain.Open(lqp.Retrieve("ALUMNUS")))
	if err != nil {
		t.Fatal(err)
	}

	sreg := NewRegistry(testConfig())
	var groups [][]lqp.LQP
	for i := 0; i < 3; i++ {
		slice, err := Slice(db, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		dead := newFake(slice, func(int64) error { return io.ErrUnexpectedEOF })
		live := newFake(slice, nil)
		groups = append(groups, []lqp.LQP{dead, live}) // primary of every shard is down
	}
	src := sreg.AddSharded("AD", groups...)
	got, err := drainOpen(src.Open(lqp.Retrieve("ALUMNUS")))
	if err != nil {
		t.Fatalf("Execute with dead primaries: %v", err)
	}
	equalRows(t, "failover retrieve", got, want)
}

// TestRegistryShardedSurface pins the registry bookkeeping: the logical
// name is the only LQP, health rows report under it, and the Shards
// snapshot carries the row accounting.
func TestRegistryShardedSurface(t *testing.T) {
	db := shardDB(120)
	reg := NewRegistry(testConfig())
	var groups [][]lqp.LQP
	for i := 0; i < 3; i++ {
		slice, err := Slice(db, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, []lqp.LQP{lqp.NewLocal(slice)})
	}
	src := reg.AddSharded("AD", groups...)

	lqps := reg.LQPs()
	if len(lqps) != 1 || lqps["AD"] != lqp.LQP(src) {
		t.Fatalf("LQPs = %v, want exactly the logical AD", lqps)
	}
	if got, ok := reg.Sharded("AD"); !ok || got != src {
		t.Fatalf("Sharded(AD) = %v, %v", got, ok)
	}
	for _, h := range reg.Health() {
		if h.Source != "AD" {
			t.Errorf("health row reports source %q, want AD", h.Source)
		}
	}
	if got := len(reg.Health()); got != 3 {
		t.Errorf("Health has %d rows, want 3 (one per shard replica)", got)
	}

	if _, err := drainOpen(src.Open(lqp.Retrieve("ALUMNUS"))); err != nil {
		t.Fatal(err)
	}
	infos := reg.Shards()
	if len(infos) != 3 {
		t.Fatalf("Shards has %d rows, want 3", len(infos))
	}
	var rows int64
	for _, in := range infos {
		if in.Source != "AD" || in.Shards != 3 {
			t.Errorf("shard info %+v malformed", in)
		}
		if !in.Healthy {
			t.Errorf("shard %d reports unhealthy", in.Shard)
		}
		rows += in.Rows
	}
	if rows != 120 {
		t.Errorf("shards served %d rows total, want 120", rows)
	}
}
