package wire

// Lifecycle regression tests: Close during in-flight work (round trips and
// streams) must never panic or leak the per-stream connection, Close must be
// idempotent and concurrency-safe, and Server.Shutdown must drain in-flight
// requests — and give up at its deadline when a peer won't finish.

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lqp"
)

// TestClientCloseDuringStream closes the client while a stream is being
// consumed: the in-flight Next fails with a transport error instead of
// hanging or panicking, the cursor's Close stays safe, and nothing leaks
// (the stream connection is torn down with the client).
func TestClientCloseDuringStream(t *testing.T) {
	_, c := startStreamServer(t, 200000)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	// Keep pulling until the torn-down connection surfaces as an error; the
	// race between Close and Next may deliver a few buffered frames first.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cur.Next(); err != nil {
			if err == io.EOF {
				t.Fatal("stream ended cleanly; want a transport error from Close")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream survived client Close")
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor Close after client Close: %v", err)
	}
	c.mu.Lock()
	leaked := len(c.streams)
	c.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d stream connection(s) leaked past Close", leaked)
	}
}

// TestClientCloseIdempotent: Close twice, and concurrently, returns nil and
// never panics.
func TestClientCloseIdempotent(t *testing.T) {
	_, c := startStreamServer(t, 10)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("closed client accepted a round trip")
	}
}

// TestServerCloseDuringStream: tearing the server down mid-stream errors
// the client cursor out instead of wedging it, and a second Close is a
// no-op.
func TestServerCloseDuringStream(t *testing.T) {
	srv, c := startStreamServer(t, 200000)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cur.Next(); err != nil {
			if err == io.EOF {
				t.Fatal("stream ended cleanly; want a transport error from server Close")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream survived server Close")
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second server Close: %v", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor Close after server Close: %v", err)
	}
}

// TestServerShutdownDrains: a request in flight when Shutdown begins
// completes; a request issued after Shutdown begins is refused.
func TestServerShutdownDrains(t *testing.T) {
	srv, c := startStreamServer(t, 50000)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(10 * time.Second) }()
	// The in-flight stream drains to completion through the shutdown.
	total := 0
	for {
		b, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("in-flight stream failed during drain: %v", err)
		}
		total += len(b)
	}
	cur.Close()
	if total != 50000 {
		t.Fatalf("drained %d tuples, want 50000", total)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("server accepted a request after Shutdown")
	}
}

// blockingMediator parks every Query until released — a deterministic way
// to hold a request in flight across a Shutdown.
type blockingMediator struct {
	started chan struct{}
	release chan struct{}
}

func (m *blockingMediator) Federation() string { return "blocky" }
func (m *blockingMediator) OpenSession(SessionOptions) (SessionInfo, error) {
	return SessionInfo{ID: "s"}, nil
}
func (m *blockingMediator) CloseSession(string) error { return nil }
func (m *blockingMediator) OpenQuery(string, string, bool) (*MediatedStream, error) {
	return nil, errors.New("blockingMediator: streams unsupported")
}
func (m *blockingMediator) Query(string, string, bool) (*MediatedAnswer, error) {
	m.started <- struct{}{}
	<-m.release
	return nil, errors.New("blockingMediator: released")
}

// TestServerShutdownDeadline: a request that refuses to finish cannot hold
// Shutdown past its deadline; connections are cut and the error says so.
func TestServerShutdownDeadline(t *testing.T) {
	bm := &blockingMediator{started: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(bm.release)
	srv := NewMediatorServer(bm)
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
	go c.Query("", "stuck", false) // parks inside the mediator
	<-bm.started                   // the request is in flight
	start := time.Now()
	err = srv.Shutdown(200 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("Shutdown = %v, want a blown-deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite its 200ms deadline", elapsed)
	}
}

// TestClientPoolParallelism: concurrent round trips on one client proceed
// in parallel across pooled connections instead of serializing on a single
// gob stream. The hand-rolled server answers each request after a fixed
// delay, one goroutine per connection — eight 150ms requests through a
// 4-conn pool must beat the 1.2s a serialized client would need.
func TestClientPoolParallelism(t *testing.T) {
	const delay = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
				for {
					var req request
					if err := dec.Decode(&req); err != nil {
						return
					}
					if req.Kind != "name" {
						time.Sleep(delay)
					}
					if err := enc.Encode(response{Name: "SLOW", Relations: []string{"R"}}); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Relations(); err != nil {
				t.Errorf("pooled round trip: %v", err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Serialized: 8×150ms = 1.2s. Pooled (4 conns): ~2×150ms. The 900ms cut
	// keeps generous slack for loaded CI runners while still proving
	// parallelism.
	if elapsed >= 900*time.Millisecond {
		t.Fatalf("8 concurrent round trips took %v; pool did not parallelize", elapsed)
	}
}

// TestDialPoolSingleConn: a pool of one preserves the old strictly-serial
// behavior and still works.
func TestDialPoolSingleConn(t *testing.T) {
	srv := NewServer(streamDB(25))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Stats()
			if err != nil {
				t.Errorf("stats: %v", err)
				return
			}
			if len(st) != 1 || st[0].Rows != 25 {
				t.Errorf("stats = %+v", st)
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	n := c.nconns
	c.mu.Unlock()
	if n > 1 {
		t.Fatalf("single-conn pool grew to %d connections", n)
	}
}

// TestPooledConnSurvivesServerIdleDrop: a server idle-timeout (or restart)
// that drops pooled connections must not surface as a query failure — the
// client retries a reused connection's transport failure once on a fresh
// dial.
func TestPooledConnSurvivesServerIdleDrop(t *testing.T) {
	srv := NewServer(streamDB(25))
	srv.IdleTimeout = 50 * time.Millisecond
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
	// Grow the pool to several connections so the drop leaves multiple
	// stale idle conns — the retry must flush them all and dial fresh, not
	// draw the next stale one.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Stats(); err != nil {
				t.Errorf("warm-up round trip: %v", err)
			}
		}()
	}
	wg.Wait()
	// Let the server drop every pooled connection, then query again: the
	// stale conn fails, the retry dials afresh, the caller never notices.
	time.Sleep(200 * time.Millisecond)
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("round trip after server idle-drop: %v", err)
	}
	if len(st) != 1 || st[0].Rows != 25 {
		t.Fatalf("stats = %+v", st)
	}
}
