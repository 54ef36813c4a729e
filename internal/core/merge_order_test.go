package core_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tables"
	"repro/internal/workload"
)

// TestMergeOrderIndependence checks §II's claim: "the order in which Outer
// Natural Total Join are performed over a set of polygen relations in a
// Merge is immaterial". Column order follows the operand order, so each
// result is projected onto the scheme's attribute order; datum spellings
// are compared under the instance resolver (the first operand's spelling
// wins presentationally). The operands are the paper's three retrieved
// organization relations (Appendix A's A1–A3, every order) and a sample of
// orders of a six-database federation without data conflicts (with
// conflicts, the default handler keeps whichever datum is coalesced into).
func TestMergeOrderIndependence(t *testing.T) {
	art, err := tables.Compute()
	if err != nil {
		t.Fatal(err)
	}
	org, _ := art.Fed.Schema.Scheme("PORGANIZATION")
	a := []*core.Relation{art.A[1], art.A[2], art.A[3]}
	wantOrderIndependent(t, art.PQP.Algebra(), org, [][]*core.Relation{
		{a[0], a[1], a[2]}, {a[0], a[2], a[1]}, {a[1], a[0], a[2]},
		{a[1], a[2], a[0]}, {a[2], a[0], a[1]}, {a[2], a[1], a[0]},
	})

	f := workload.New(workload.Config{Databases: 6, Entities: 300, Overlap: 0.5, Categories: 8, Seed: 3})
	frags := f.TaggedFragments()
	rng := rand.New(rand.NewSource(5))
	orders := [][]*core.Relation{frags}
	for i := 0; i < 12; i++ {
		ord := make([]*core.Relation, len(frags))
		for k, p := range rng.Perm(len(frags)) {
			ord[k] = frags[p]
		}
		orders = append(orders, ord)
	}
	wantOrderIndependent(t, core.NewAlgebra(nil), f.Scheme, orders)
}

// wantOrderIndependent merges every operand order and compares each result,
// projected onto the scheme's attributes and case-folded, with the first.
func wantOrderIndependent(t *testing.T, alg *core.Algebra, scheme *core.Scheme, orders [][]*core.Relation) {
	t.Helper()
	var reference []string
	for oi, ord := range orders {
		m, err := alg.Merge(scheme, ord...)
		if err != nil {
			t.Fatalf("%s order %d: %v", scheme.Name, oi, err)
		}
		proj, err := alg.Project(m, scheme.AttrNames())
		if err != nil {
			t.Fatalf("%s order %d: project: %v", scheme.Name, oi, err)
		}
		rows := make([]string, len(proj.Tuples))
		for i, tu := range proj.Tuples {
			parts := make([]string, len(tu))
			for j, c := range tu {
				parts[j] = c.Format(proj.Reg)
			}
			rows[i] = strings.ToLower(strings.Join(parts, " | "))
		}
		sort.Strings(rows)
		if oi == 0 {
			reference = rows
			continue
		}
		if strings.Join(rows, "\n") != strings.Join(reference, "\n") {
			t.Errorf("%s order %d differs from order 0:\n%s\nvs\n%s", scheme.Name, oi,
				strings.Join(rows, "\n"), strings.Join(reference, "\n"))
		}
	}
}
