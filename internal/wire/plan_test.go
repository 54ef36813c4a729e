package wire

import (
	"io"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

func planFixture(t *testing.T) (*Server, *Client) {
	t.Helper()
	return serveDB(t, planDB(t))
}

func planDB(t *testing.T) *catalog.Database {
	t.Helper()
	db := catalog.NewDatabase("WD")
	db.MustCreate("T", rel.SchemaOf("K", "C", "V"), "K")
	rows := make([]rel.Tuple, 0, 600)
	for i := 0; i < 600; i++ {
		cat := "a"
		if i%3 == 0 {
			cat = "b"
		}
		rows = append(rows, rel.Tuple{rel.Int(int64(i)), rel.String(cat), rel.Int(int64(i * 2))})
	}
	if err := db.Insert("T", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

func serveDB(t *testing.T, db *catalog.Database) (*Server, *Client) {
	t.Helper()
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

// TestExecutePlanRoundTrip: the "openplan" request evaluates the whole
// subplan server-side; only the filtered, narrowed relation crosses the
// wire.
func TestExecutePlanRoundTrip(t *testing.T) {
	_, client := planFixture(t)
	p := lqp.PlanOf(
		lqp.Retrieve("T"),
		lqp.Select("T", "C", rel.ThetaEQ, rel.String("b")),
		lqp.Project("T", "V"),
	)
	r, err := drainOpen(client.OpenPlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tuples) != 200 || r.Schema.Len() != 1 {
		t.Errorf("plan result %dx%d, want 200x1", len(r.Tuples), r.Schema.Len())
	}
	// An invalid plan fails client-side before touching the wire.
	if _, err := client.OpenPlan(lqp.Plan{}); err == nil {
		t.Error("empty plan accepted")
	}
	// A server-side evaluation error comes back as an error response.
	bad := lqp.PlanOf(lqp.Retrieve("T"), lqp.Select("T", "NOPE", rel.ThetaEQ, rel.String("x")))
	if _, err := client.OpenPlan(bad); err == nil {
		t.Error("plan referencing a missing attribute accepted")
	}
}

// TestClientOpenPlanFiltersAfterProject: pushed plans that filter after a
// Project stream back, row for row, what the same plan gives over the
// in-process relation.
func TestClientOpenPlanFiltersAfterProject(t *testing.T) {
	db := planDB(t)
	_, client := serveDB(t, db)
	plans := []lqp.Plan{
		lqp.PlanOf(lqp.Retrieve("T"), lqp.Project("T", "C", "V"), lqp.Select("T", "V", rel.ThetaLT, rel.Int(300))),
		lqp.PlanOf(lqp.Retrieve("T"), lqp.Project("T", "K", "V"), lqp.Restrict("T", "K", rel.ThetaLT, "V"), lqp.Project("T", "K")),
		lqp.PlanOf(lqp.Retrieve("T"), lqp.Project("T", "C", "K"), lqp.Restrict("T", "K", rel.ThetaLE, "K"), lqp.Project("T", "C")),
	}
	for _, p := range plans {
		got, err := drainOpen(client.OpenPlan(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		want, err := drainOpen(lqp.NewLocal(db).OpenPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Tuples) == 0 || len(got.Tuples) != len(want.Tuples) {
			t.Fatalf("%s: %d rows over the wire, %d in-process", p, len(got.Tuples), len(want.Tuples))
		}
		for i, tup := range want.Tuples {
			if !got.Tuples[i].Identical(tup) {
				t.Fatalf("%s: row %d is %v over the wire, %v in-process", p, i, got.Tuples[i], tup)
			}
		}
	}
}

// TestOpenPlanStreamRoundTrip: the "openplan" request streams the filtered
// batches on a dedicated connection.
func TestOpenPlanStreamRoundTrip(t *testing.T) {
	_, client := planFixture(t)
	cur, err := client.OpenPlan(lqp.PlanOf(
		lqp.Retrieve("T"),
		lqp.Select("T", "C", rel.ThetaEQ, rel.String("a")),
	))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := cur.Schema().Len(); got != 3 {
		t.Fatalf("stream schema has %d columns, want 3", got)
	}
	rows := 0
	for {
		batch, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += len(batch)
	}
	if rows != 400 {
		t.Errorf("streamed %d rows, want 400", rows)
	}
}

// TestStatsRoundTrip: the "stats" request serves the statistics capability
// remotely, so stats.Collect works across the wire.
func TestStatsRoundTrip(t *testing.T) {
	_, client := planFixture(t)
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].Name != "T" || st[0].Rows != 600 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st[0].Columns; len(got) != 3 || got[0] != "K" {
		t.Errorf("columns = %v", got)
	}
	if len(st[0].Key) != 1 || st[0].Key[0] != "K" {
		t.Errorf("key = %v", st[0].Key)
	}
}
