package workload

import (
	"sort"
	"testing"

	"repro/internal/lqp"
	"repro/internal/rel"
)

// TestShardedStarSlicesReconstruct proves the shard slices of every source
// partition its catalog exactly: disjoint, complete, schema- and
// key-preserving.
func TestShardedStarSlicesReconstruct(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		ss := NewShardedStar(ShardedStarConfig{
			Fault:  FaultConfig{Star: StarConfig{Facts: 400, Dims: 20, Mids: 10, Categories: 5, Seed: 3}, Replicas: 1},
			Shards: shards,
		})
		for _, db := range ss.Star.Databases() {
			slices := ss.Slices[db.Name()]
			if len(slices) != shards {
				t.Fatalf("%s has %d slices, want %d", db.Name(), len(slices), shards)
			}
			for _, relName := range db.Relations() {
				_, orig, err := db.View(relName)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]string, len(orig))
				for i, tup := range orig {
					want[i] = tup.Key()
				}
				sort.Strings(want)

				var got []string
				for i, slice := range slices {
					key, _ := db.Key(relName)
					skey, err := slice.Key(relName)
					if err != nil || len(skey) != len(key) {
						t.Fatalf("slice %d of %s.%s lost its key", i, db.Name(), relName)
					}
					_, tuples, err := slice.View(relName)
					if err != nil {
						t.Fatal(err)
					}
					for _, tup := range tuples {
						got = append(got, tup.Key())
					}
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Fatalf("shards=%d %s.%s: union has %d rows, want %d", shards, db.Name(), relName, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("shards=%d %s.%s: union row %d = %q, want %q", shards, db.Name(), relName, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// drainOpen drains an opened operation into a relation.
func drainOpen(cur rel.Cursor, err error) (*rel.Relation, error) {
	if err != nil {
		return nil, err
	}
	return rel.Drain(cur)
}

// TestShardedStarServesStarAnswers spot-checks the scatter-gather LQPs
// against the single-copy star: a full retrieve and a pruned key select per
// source.
func TestShardedStarServesStarAnswers(t *testing.T) {
	ss := NewShardedStar(ShardedStarConfig{
		Fault:  FaultConfig{Star: StarConfig{Facts: 300, Dims: 20, Mids: 10, Categories: 5, Seed: 9}, Replicas: 1},
		Shards: 3,
	})
	plain := ss.Star.LQPs()
	ops := map[string][]lqp.Op{
		"FD": {lqp.Retrieve("FACT"), lqp.Select("FACT", "FK", rel.ThetaEQ, rel.String("F0000012"))},
		"DD": {lqp.Retrieve("DIM"), lqp.Select("DIM", "DK", rel.ThetaEQ, rel.String("D0003"))},
		"MD": {lqp.Retrieve("MID")},
	}
	for name, l := range ss.LQPs() {
		for _, op := range ops[name] {
			want, err := drainOpen(plain[name].Open(op))
			if err != nil {
				t.Fatalf("%s plain %v: %v", name, op, err)
			}
			got, err := drainOpen(l.Open(op))
			if err != nil {
				t.Fatalf("%s sharded %v: %v", name, op, err)
			}
			w := make([]string, len(want.Tuples))
			for i, tup := range want.Tuples {
				w[i] = tup.Key()
			}
			g := make([]string, len(got.Tuples))
			for i, tup := range got.Tuples {
				g[i] = tup.Key()
			}
			sort.Strings(w)
			sort.Strings(g)
			if len(g) != len(w) {
				t.Fatalf("%s %v: %d rows, want %d", name, op, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("%s %v: row %d diverges", name, op, i)
				}
			}
		}
	}
}
