package catalog

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/rel"
)

// keyCells is the pool key cells are drawn from. It is small so that batches
// collide often, and it holds every case where key identity is subtle: -0
// and +0 are one datum, NaNs with different payloads are one datum, Int(5),
// Float(5) and String("5") are three, and null equals null.
var keyCells = []rel.Value{
	rel.Int(0), rel.Int(5), rel.Int(-1),
	rel.Float(5), rel.Float(0), rel.Float(math.Copysign(0, -1)),
	rel.Float(math.NaN()), rel.Float(math.Float64frombits(0x7FF8000000000002)),
	rel.Float(math.Inf(1)),
	rel.Null(), rel.String("5"), rel.String("a"), rel.String(""),
	rel.Bool(true), rel.Bool(false),
}

// keyModel is the reference the catalog is checked against: the set of
// Tuple.Key strings of the stored rows' key columns — the identity the
// catalog enforced before it had a key index.
type keyModel struct {
	keyIdx []int
	stored map[string]bool
	rows   int
}

func (m *keyModel) key(t rel.Tuple) string {
	sub := make(rel.Tuple, len(m.keyIdx))
	for i, ci := range m.keyIdx {
		sub[i] = t[ci]
	}
	return sub.Key()
}

// accepts reports whether the batch's keys are new and distinct.
func (m *keyModel) accepts(batch []rel.Tuple) bool {
	if len(m.keyIdx) == 0 {
		return true
	}
	seen := map[string]bool{}
	for _, t := range batch {
		k := m.key(t)
		if m.stored[k] || seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

func (m *keyModel) add(batch []rel.Tuple) {
	for _, t := range batch {
		if len(m.keyIdx) > 0 {
			m.stored[m.key(t)] = true
		}
	}
	m.rows += len(batch)
}

// fresh returns the rows of a rejected batch that the model would accept:
// the first occurrence of every key not already stored.
func (m *keyModel) fresh(batch []rel.Tuple) []rel.Tuple {
	seen := map[string]bool{}
	var out []rel.Tuple
	for _, t := range batch {
		k := m.key(t)
		if !m.stored[k] && !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// TestKeyIndexDifferential drives seeded insert batches into single-key,
// composite-key and keyless relations and checks every accept/reject
// decision against the Tuple.Key reference. A rejected batch must leave rows
// and index untouched, which the test proves by inserting the batch's
// acceptable rows right afterwards.
func TestKeyIndexDifferential(t *testing.T) {
	shapes := []struct {
		name   string
		schema *rel.Schema
		key    []string
	}{
		{"single", rel.SchemaOf("K", "V"), []string{"K"}},
		{"composite", rel.SchemaOf("A", "V", "B"), []string{"A", "B"}},
		{"keyless", rel.SchemaOf("A", "B"), nil},
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(seed))
			db := NewDatabase("X")
			db.MustCreate("T", sh.schema, sh.key...)
			m := &keyModel{stored: map[string]bool{}}
			for _, k := range sh.key {
				m.keyIdx = append(m.keyIdx, sh.schema.Index(k))
			}
			for step := 0; step < 200; step++ {
				batch := make([]rel.Tuple, 1+rng.Intn(4))
				for i := range batch {
					tup := make(rel.Tuple, sh.schema.Len())
					for c := range tup {
						tup[c] = keyCells[rng.Intn(len(keyCells))]
					}
					batch[i] = tup
				}
				want := m.accepts(batch)
				err := db.Insert("T", batch...)
				if (err == nil) != want {
					t.Fatalf("seed %d %s step %d: Insert(%v) = %v, reference accepts = %v", seed, sh.name, step, batch, err, want)
				}
				if want {
					m.add(batch)
				} else if retry := m.fresh(batch); len(retry) > 0 {
					if err := db.Insert("T", retry...); err != nil {
						t.Fatalf("seed %d %s step %d: rejected batch left state behind: %v", seed, sh.name, step, err)
					}
					m.add(retry)
				}
				if _, rows, _ := db.View("T"); len(rows) != m.rows {
					t.Fatalf("seed %d %s step %d: %d rows stored, reference has %d", seed, sh.name, step, len(rows), m.rows)
				}
			}
			// Every stored key is indexed: re-inserting any row is refused.
			if len(sh.key) > 0 {
				_, rows, _ := db.View("T")
				for _, r := range rows {
					if err := db.Insert("T", r); err == nil {
						t.Fatalf("seed %d %s: stored row %v re-inserted", seed, sh.name, r)
					}
				}
			}
		}
	}
}

// TestKeyIndexInsertCost guards the point of the key index: a one-row insert
// into a large keyed relation costs O(1) allocations, not a key string per
// stored row.
func TestKeyIndexInsertCost(t *testing.T) {
	const stored, runs = 10000, 100
	db := NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("K", "V"), "K")
	rows := make([]rel.Tuple, stored+runs+1)
	for i := range rows {
		rows[i] = rel.Tuple{rel.Int(int64(i)), rel.String("v")}
	}
	if err := db.Insert("T", rows[:stored]...); err != nil {
		t.Fatal(err)
	}
	next := stored
	allocs := testing.AllocsPerRun(runs, func() {
		if err := db.Insert("T", rows[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 4 {
		t.Errorf("one-row insert into a %d-row keyed relation: %.1f allocs, want <= 4", stored, allocs)
	}
}
