package wire

import (
	"testing"

	"repro/internal/lqp"
	"repro/internal/rel"
)

func TestClientInsert(t *testing.T) {
	_, c := serve(t)
	err := c.Insert("FIRM", []rel.Tuple{
		{rel.String("Polygen"), rel.String("A. Mediator"), rel.String("Cambridge, MA")},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := drainOpen(c.Open(lqp.Retrieve("FIRM")))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cardinality() != 4 {
		t.Fatalf("cardinality after insert = %d", r.Cardinality())
	}
	found := false
	for _, tu := range r.Tuples {
		if tu[0].Str() == "Polygen" {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted row not retrieved")
	}
}

func TestClientInsertErrors(t *testing.T) {
	_, c := serve(t)
	// Key violation surfaces as an application error, not a transport one.
	err := c.Insert("FIRM", []rel.Tuple{
		{rel.String("IBM"), rel.String("dup"), rel.String("dup")},
	})
	if err == nil {
		t.Fatal("duplicate key accepted over the wire")
	}
	if err := c.Insert("NOPE", []rel.Tuple{{rel.String("x")}}); err == nil {
		t.Fatal("insert into missing relation accepted")
	}
}

func TestMediatorServerRefusesInsert(t *testing.T) {
	// A server without a local LQP must refuse writes cleanly.
	srv := &Server{WriteTimeout: DefaultTimeout}
	resp := srv.handle(request{Kind: "insert", Relation: "FIRM"})
	if resp.Err == "" {
		t.Fatal("mediator-only server accepted an insert")
	}
}
