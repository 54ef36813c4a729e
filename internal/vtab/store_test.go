package vtab

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/store"
)

// TestStoreAndMemTables binds a live durable store and a memory budget and
// proves V$STORE / V$MEM and the matching /metrics families observe them.
func TestStoreAndMemTables(t *testing.T) {
	seed := catalog.NewDatabase("DUR")
	seed.MustCreate("R", rel.SchemaOf("K", "V"), "K")
	st, err := store.Open(t.TempDir(), "", seed, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Insert("R", rel.Tuple{rel.String("a"), rel.String("1")}); err != nil {
		t.Fatal(err)
	}
	mem := &core.Memory{Budget: 1 << 20}
	mem.Refused.Add(3)

	store.Register("DUR", st)
	defer store.Unregister("DUR")
	vt := New()
	vt.Bind(Sources{Stores: store.Each, Memory: mem})

	r, err := drainOpen(vt.Open(lqp.Retrieve("V$STORE")))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 1 {
		t.Fatalf("V$STORE has %d rows, want 1", len(r.Tuples))
	}
	row := r.Tuples[0]
	if row[0].Str() != "DUR" {
		t.Fatalf("STORE = %q", row[0].Str())
	}
	if appends := row[3].IntVal(); appends != 1 {
		t.Fatalf("APPENDS = %d, want 1", appends)
	}
	if broken := row[11].BoolVal(); broken {
		t.Fatal("BROKEN = true for a healthy store")
	}

	m, err := drainOpen(vt.Open(lqp.Retrieve("V$MEM")))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tuples) != 1 {
		t.Fatalf("V$MEM has %d rows, want 1", len(m.Tuples))
	}
	if budget := m.Tuples[0][0].IntVal(); budget != 1<<20 {
		t.Fatalf("BUDGET_BYTES = %d", budget)
	}
	if got := len(m.Tuples[0]); got != 2 {
		t.Fatalf("V$MEM row has %d columns, want BUDGET_BYTES, REFUSED", got)
	}
	if refused := m.Tuples[0][1].IntVal(); refused != 3 {
		t.Fatalf("REFUSED = %d, want 3", refused)
	}

	rec := httptest.NewRecorder()
	vt.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`polygen_store_appends_total{store="DUR"} 1`,
		`polygen_store_broken{store="DUR"} 0`,
		"polygen_mem_budget_bytes 1048576",
		"polygen_mem_refused_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
