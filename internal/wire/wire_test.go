package wire

import (
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

func serve(t *testing.T) (*Server, *Client) {
	t.Helper()
	db := catalog.NewDatabase("CD")
	db.MustCreate("FIRM", rel.SchemaOf("FNAME", "CEO", "HQ"), "FNAME")
	rows := [][3]string{
		{"IBM", "John Ackers", "Armonk, NY"},
		{"DEC", "Ken Olsen", "Maynard, MA"},
		{"Apple", "John Sculley", "Cupertino, CA"},
	}
	for _, r := range rows {
		if err := db.Insert("FIRM", rel.Tuple{rel.String(r[0]), rel.String(r[1]), rel.String(r[2])}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// drainOpen drains an opened operation or plan into a relation.
func drainOpen(cur rel.Cursor, err error) (*rel.Relation, error) {
	if err != nil {
		return nil, err
	}
	return rel.Drain(cur)
}

func TestClientName(t *testing.T) {
	_, c := serve(t)
	if c.Name() != "CD" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestClientRelations(t *testing.T) {
	_, c := serve(t)
	rels, err := c.Relations()
	if err != nil || len(rels) != 1 || rels[0] != "FIRM" {
		t.Errorf("Relations = %v, %v", rels, err)
	}
}

func TestClientRetrieve(t *testing.T) {
	_, c := serve(t)
	r, err := drainOpen(c.Open(lqp.Retrieve("FIRM")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 3 || r.Schema.Len() != 3 {
		t.Errorf("retrieved %dx%d", r.Cardinality(), r.Schema.Len())
	}
	if r.Tuples[0][0].Str() != "IBM" {
		t.Errorf("first tuple = %v", r.Tuples[0])
	}
}

func TestClientSelect(t *testing.T) {
	_, c := serve(t)
	r, err := drainOpen(c.Open(lqp.Select("FIRM", "FNAME", rel.ThetaEQ, rel.String("DEC"))))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 1 || r.Tuples[0][1].Str() != "Ken Olsen" {
		t.Errorf("select result = %v", r)
	}
}

func TestClientProject(t *testing.T) {
	_, c := serve(t)
	r, err := drainOpen(c.Open(lqp.Project("FIRM", "CEO")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 3 || r.Schema.Len() != 1 {
		t.Errorf("project result = %v", r)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	_, c := serve(t)
	_, err := c.Open(lqp.Retrieve("MISSING"))
	if err == nil {
		t.Fatal("expected error for missing relation")
	}
	// The client must survive an application-level error.
	if _, err := drainOpen(c.Open(lqp.Retrieve("FIRM"))); err != nil {
		t.Fatalf("connection unusable after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := serve(t)
	addr := srv.listener.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				r, err := drainOpen(c.Open(lqp.Retrieve("FIRM")))
				if err != nil {
					errs <- err
					return
				}
				if r.Cardinality() != 3 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestConcurrentRequestsOneClient(t *testing.T) {
	_, c := serve(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Stats(); err != nil {
				t.Errorf("concurrent round trip: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port should fail")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := serve(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestClientAfterServerClose(t *testing.T) {
	srv, c := serve(t)
	srv.Close()
	if _, err := c.Open(lqp.Retrieve("FIRM")); err == nil {
		t.Error("open after server close should fail")
	}
}

func TestValueKindsSurviveWire(t *testing.T) {
	db := catalog.NewDatabase("X")
	db.MustCreate("T", rel.SchemaOf("S", "I", "F", "B", "N"))
	db.Insert("T", rel.Tuple{rel.String("x"), rel.Int(-5), rel.Float(3.99), rel.Bool(true), rel.Null()})
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := drainOpen(c.Open(lqp.Retrieve("T")))
	if err != nil {
		t.Fatal(err)
	}
	tu := r.Tuples[0]
	if tu[0].Kind() != rel.KindString || tu[1].Kind() != rel.KindInt ||
		tu[2].Kind() != rel.KindFloat || tu[3].Kind() != rel.KindBool || !tu[4].IsNull() {
		t.Errorf("kinds lost over the wire: %v", tu)
	}
	if tu[1].IntVal() != -5 || tu[2].FloatVal() != 3.99 || !tu[3].BoolVal() {
		t.Errorf("payloads lost over the wire: %v", tu)
	}
}

// TestLargeRelationTransfer pushes a 20k-tuple relation through the
// protocol, checking nothing truncates and the stream stays usable.
func TestLargeRelationTransfer(t *testing.T) {
	db := catalog.NewDatabase("BIG")
	db.MustCreate("T", rel.SchemaOf("K", "A", "B"))
	tuples := make([]rel.Tuple, 0, 20000)
	for i := 0; i < 20000; i++ {
		tuples = append(tuples, rel.Tuple{
			rel.Int(int64(i)),
			rel.String("value-with-some-length-" + rel.Int(int64(i)).String()),
			rel.Float(float64(i) * 1.5)})
	}
	if err := db.Insert("T", tuples...); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 2; round++ {
		r, err := drainOpen(c.Open(lqp.Retrieve("T")))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cardinality() != 20000 {
			t.Fatalf("round %d: got %d tuples", round, r.Cardinality())
		}
		if r.Tuples[19999][0].IntVal() != 19999 {
			t.Fatal("last tuple corrupted")
		}
	}
}
