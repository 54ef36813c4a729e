package wire

import (
	"net"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/rel"
)

// TestPooledConnRetirementUnderTransportFaults: every accepted connection is
// killed after a fixed read budget (faultinject.FlakyConn via ConnHook), so
// pooled client connections keep dying mid-exchange. The client must retire
// each poisoned connection — never return it to the idle pool — and keep
// answering on fresh dials: the pool ends the loop holding only working
// connections, with the accounting (nconns vs idle) intact.
func TestPooledConnRetirementUnderTransportFaults(t *testing.T) {
	db := catalog.NewDatabase("CD")
	db.MustCreate("FIRM", rel.SchemaOf("FNAME", "CEO"), "FNAME")
	if err := db.Insert("FIRM",
		rel.Tuple{rel.String("IBM"), rel.String("John Ackers")},
		rel.Tuple{rel.String("DEC"), rel.String("Ken Olsen")},
	); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(db)
	var mu sync.Mutex
	var accepted []*faultinject.FlakyConn
	srv.ConnHook = func(conn net.Conn) net.Conn {
		fc := faultinject.WrapConn(conn, faultinject.ConnProfile{CutAfterReads: 24})
		mu.Lock()
		accepted = append(accepted, fc)
		mu.Unlock()
		return fc
	}
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

	// Enough exchanges to blow through several connections' read budgets.
	// Cuts on a reused pooled connection are absorbed by the client's
	// flush-and-retry; a cut during a fresh connection's first exchange may
	// still surface — count, don't fail.
	surfaced := 0
	for i := 0; i < 40; i++ {
		if _, err := c.Stats(); err != nil {
			surfaced++
		}
	}
	// Whatever happened mid-loop, the client must answer now: every dead
	// connection was retired, not re-pooled.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("client did not recover after transport cuts: %v", err)
	}
	if len(st) != 1 || st[0].Rows != 2 {
		t.Fatalf("recovered answer = %+v, want FIRM with 2 rows", st)
	}
	if surfaced > 40/2 {
		t.Errorf("%d of 40 calls failed; retirement plus retry should absorb most cuts", surfaced)
	}

	mu.Lock()
	conns, cuts := len(accepted), 0
	for _, fc := range accepted {
		if fc.Cut() {
			cuts++
		}
	}
	mu.Unlock()
	if cuts == 0 {
		t.Fatal("no connection was ever cut — the fault injection never fired")
	}
	if conns < 2 {
		t.Fatalf("server accepted %d connection(s); retirement should have forced fresh dials", conns)
	}

	// Pool accounting: at quiescence every live connection is idle (none
	// leaked broken into the pool, none lost from the count).
	c.mu.Lock()
	nconns, idle := c.nconns, len(c.idle)
	c.mu.Unlock()
	if nconns != idle {
		t.Errorf("pool holds %d connections but %d idle — a retired connection leaked", nconns, idle)
	}
}
