package vtab

// Shared test scaffolding: a star federation with the V$ tables registered
// the way cmd/polygend wires them — federation layer under the LQPs, vtab
// schemes in the polygen schema, sources bound after the mediator exists —
// plus renderers that turn tagged answers into sorted comparison lines.

import (
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/pqp"
	"repro/internal/stats"
	"repro/internal/translate"
	"repro/internal/workload"
)

// harness is one fully wired federation-with-introspection: the mediator's
// PQP serves the star sources through the fault-tolerance layer plus the V$
// tables, and vt observes all of it.
type harness struct {
	star   *workload.Star
	vt     *Tables
	reg    *federation.Registry
	faults *stats.Catalog
	proc   *pqp.PQP
	svc    *mediator.Service
}

// harnessStarConfig keeps the data small enough for tight test loops but
// large enough that star joins multi-batch.
func harnessStarConfig() workload.StarConfig {
	return workload.StarConfig{Facts: 600, Dims: 20, Mids: 10, Categories: 5, Seed: 11}
}

// harnessQueries is the closed-loop mix: the star queries plus one
// PMID join so all three sources (MD included) see traffic.
func harnessQueries() []string {
	return append(workload.StarQueries(),
		`((PFACT [MK = MK] PMID) [CAT = "cat2"]) [VAL, GRADE]`)
}

// newHarness builds the wired federation. The federation layer runs with
// hedging disabled and no injected faults, so V$FAULT stays all-zero unless
// a test swaps in its own registry.
func newHarness(t *testing.T, medCfg mediator.Config) *harness {
	t.Helper()
	star := workload.NewStar(harnessStarConfig())
	faults := stats.NewCatalog()
	reg := federation.NewRegistry(federation.Config{
		CallTimeout: 10 * time.Second,
		HedgeDelay:  -1,
		Stats:       faults,
	})
	// DD is sharded two ways (via the same Slice/AddSharded path polygend
	// -shards uses) so V$SHARD has rows to observe; FD and MD stay plain.
	// The parity engines compare against star.LQPs() directly, so the
	// scatter-gather must stay answer-invisible.
	for name, l := range star.LQPs() {
		if name != star.DD.Name() {
			reg.Add(name, l)
		}
	}
	ddShards := make([][]lqp.LQP, 2)
	for i := range ddShards {
		slice, err := federation.Slice(star.DD, i, len(ddShards))
		if err != nil {
			t.Fatalf("Slice(DD, %d): %v", i, err)
		}
		ddShards[i] = []lqp.LQP{lqp.NewLocal(slice)}
	}
	dd := reg.AddSharded(star.DD.Name(), ddShards...)
	dd.SetShardKeys(federation.NewShardMap(star.DD, len(ddShards)).Keys)
	lqps := reg.LQPs()
	vt := New()
	lqps[SourceName] = vt
	schema, err := AugmentSchema(star.Schema)
	if err != nil {
		t.Fatalf("AugmentSchema: %v", err)
	}
	star.Registry.Intern(SourceName)
	proc := pqp.New(schema, star.Registry, nil, lqps)
	proc.Plans = translate.NewPlanCache(32)
	svc := mediator.New(proc, medCfg)
	vt.Bind(Sources{
		Sessions: svc,
		Plans:    proc.Plans,
		Stats:    func() *stats.Catalog { return proc.Stats },
		Faults:   faults,
		Registry: reg,
	})
	return &harness{star: star, vt: vt, reg: reg, faults: faults, proc: proc, svc: svc}
}

// taggedRows renders a tagged relation one sorted line per tuple in the
// paper's "datum, {origins}, {intermediates}" notation — the cell-for-cell,
// tag-for-tag comparison key of the parity suite.
func taggedRows(p *core.Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = c.Format(p.Reg)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	sort.Strings(out)
	return out
}

// drainTagged drains a tagged cursor into the same sorted lines as
// taggedRows, closing the cursor.
func drainTagged(t *testing.T, cur core.Cursor) []string {
	t.Helper()
	defer cur.Close()
	var out []string
	for {
		batch, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("draining cursor: %v", err)
		}
		for _, tu := range batch {
			parts := make([]string, len(tu))
			for i, c := range tu {
				parts[i] = c.Format(cur.Registry())
			}
			out = append(out, strings.Join(parts, " | "))
		}
	}
	sort.Strings(out)
	return out
}

// colIndex finds a column by polygen (or local) attribute name.
func colIndex(t *testing.T, attrs []core.Attr, name string) int {
	t.Helper()
	for i, a := range attrs {
		if a.Polygen == name || a.Name == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, attrs)
	return -1
}

// intCol reads row[col] of a tagged relation as an int64 datum.
func intCol(t *testing.T, p *core.Relation, row int, name string) int64 {
	t.Helper()
	return p.Tuples[row][colIndex(t, p.Attrs, name)].D.IntVal()
}

// strCol reads row[col] of a tagged relation as a string datum.
func strCol(t *testing.T, p *core.Relation, row int, name string) string {
	t.Helper()
	return p.Tuples[row][colIndex(t, p.Attrs, name)].D.Str()
}
