package wire

import (
	"encoding/gob"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/lqp"
	"repro/internal/rel"
)

func streamDB(n int) *catalog.Database {
	db := catalog.NewDatabase("SD")
	db.MustCreate("BIG", rel.SchemaOf("K", "V"))
	for i := 0; i < n; i++ {
		if err := db.Insert("BIG", rel.Tuple{rel.Int(int64(i)), rel.String("v")}); err != nil {
			panic(err)
		}
	}
	return db
}

func startStreamServer(t *testing.T, n int) (*Server, *Client) {
	t.Helper()
	srv := NewServer(streamDB(n))
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

// TestClientOpenStreamsBatches: a multi-batch relation arrives framed and
// in order, and the request/response path keeps working beside the stream.
func TestClientOpenStreamsBatches(t *testing.T) {
	const n = 1000
	_, c := startStreamServer(t, n)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	batches, total := 0, 0
	for {
		b, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches++
		for _, tup := range b {
			if tup[0].IntVal() != int64(total) {
				t.Fatalf("tuple %d out of order: %v", total, tup)
			}
			total++
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("streamed %d tuples, want %d", total, n)
	}
	if batches < 2 {
		t.Fatalf("result arrived in %d frame(s); want row batches", batches)
	}
	// The request/response path is unaffected by the stream.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].Rows != n {
		t.Fatalf("stats after stream = %+v, want BIG with %d rows", st, n)
	}
}

// TestClientOpenPushedSelect: server-side selection streams only matches.
func TestClientOpenPushedSelect(t *testing.T) {
	_, c := startStreamServer(t, 600)
	cur, err := c.Open(lqp.Select("BIG", "K", rel.ThetaLT, rel.Int(10)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 10 {
		t.Fatalf("selected %d tuples, want 10", got.Cardinality())
	}
}

// TestClientOpenError: a failing local operation reports in the header and
// leaves the main connection usable.
func TestClientOpenError(t *testing.T) {
	_, c := startStreamServer(t, 10)
	if _, err := c.Open(lqp.Retrieve("MISSING")); err == nil {
		t.Fatal("missing relation accepted")
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("main connection broken after stream error: %v", err)
	}
}

// TestClientOpenAbandoned: closing a stream cursor mid-flight costs only
// its own connection; the client and other streams keep working.
func TestClientOpenAbandoned(t *testing.T) {
	_, c := startStreamServer(t, 100000)
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
	cur2, err := c.Open(lqp.Retrieve("BIG"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Drain(cur2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 100000 {
		t.Fatalf("second stream retrieved %d tuples, want 100000", got.Cardinality())
	}
}

// TestClientOpenAfterClose: a closed client refuses to dial new stream
// connections — shutdown actually stops streamed work.
func TestClientOpenAfterClose(t *testing.T) {
	srv := NewServer(streamDB(10))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(lqp.Retrieve("BIG")); err == nil {
		t.Fatal("closed client opened a stream")
	}
}

// TestClientTimeoutOnStalledServer: a server that accepts but never
// answers trips the client deadline instead of wedging the query, and the
// poisoned connection is retired from the pool — the next call dials afresh
// and is bounded by its own deadline, never wedged.
func TestClientTimeoutOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn // hold open, never respond
		}
	}()
	defer func() {
		for {
			select {
			case conn := <-accepted:
				conn.Close()
			default:
				return
			}
		}
	}()

	start := time.Now()
	c := newClient(ln.Addr().String(), 1)
	c.Timeout = 100 * time.Millisecond
	if _, err := c.Stats(); err == nil {
		t.Fatal("stalled server produced a result")
	} else if !strings.Contains(err.Error(), "wire:") {
		t.Fatalf("error = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not fire; call took %v", elapsed)
	}
	// The poisoned connection was retired; the next call dials afresh and is
	// again bounded by the deadline (generous slack for loaded CI runners).
	start = time.Now()
	if _, err := c.Stats(); err == nil {
		t.Fatal("stalled server produced a result on a fresh connection")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry did not respect the deadline; call took %v", elapsed)
	}

	// The streaming path times out too.
	if _, err := c.Open(lqp.Retrieve("BIG")); err == nil {
		t.Fatal("stalled server produced a stream")
	}
}

// TestStreamCursorSkipsEmptyFrames: an empty binary frame mid-stream is
// skipped — NextCol neither hands out an empty batch nor ends the stream.
func TestStreamCursorSkipsEmptyFrames(t *testing.T) {
	schema := rel.SchemaOf("K")
	srv, cli := net.Pipe()
	defer srv.Close()
	go func() {
		enc := gob.NewEncoder(srv)
		full := rel.FromTuples(schema, []rel.Tuple{{rel.Int(1)}, {rel.Int(2)}})
		for _, f := range []frame{
			{Bin: rel.AppendFrame(nil, rel.NewColBatch(schema))},
			{Bin: rel.AppendFrame(nil, full)},
			{Done: true},
		} {
			if enc.Encode(f) != nil {
				return
			}
		}
	}()
	r := frameReader{client: newClient("pipe", 1), conn: cli, dec: gob.NewDecoder(cli), timeout: 5 * time.Second}
	sc := &streamCursor{frameReader: r, schema: schema}
	defer sc.Close()
	b, err := sc.NextCol()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("first batch has %d rows, want 2 (the empty frame must be skipped)", b.Len())
	}
	if _, err := sc.NextCol(); err != io.EOF {
		t.Fatalf("after the last frame: err %v, want EOF", err)
	}
}

// TestServerRejectsRepeatedProjectAttribute: a raw request whose Project
// names an attribute twice is answered with an error naming it — the
// server neither panics nor drops the connection, and serves the next
// request on it.
func TestServerRejectsRepeatedProjectAttribute(t *testing.T) {
	_, c := startStreamServer(t, 10)
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	for _, p := range []lqp.Plan{
		lqp.PlanOf(lqp.Project("BIG", "V", "V")),
		lqp.PlanOf(lqp.Retrieve("BIG"), lqp.Project("BIG", "K", "V", "K")),
	} {
		if err := enc.Encode(request{Kind: "openplan", Plan: p}); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("%s: connection dropped: %v", p, err)
		}
		if resp.Err == "" || !strings.Contains(resp.Err, "twice") {
			t.Fatalf("%s: response error %q, want the repeated attribute named", p, resp.Err)
		}
	}
	if err := enc.Encode(request{Kind: "name"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil || resp.Name != "SD" {
		t.Fatalf("next request on the connection: %+v, %v", resp, err)
	}
	if got, err := rel.Drain(mustOpen(t, c, lqp.Retrieve("BIG"))); err != nil || got.Cardinality() != 10 {
		t.Fatalf("server after the rejected requests: %v", err)
	}
}

func mustOpen(t *testing.T, c *Client, op lqp.Op) rel.Cursor {
	t.Helper()
	cur, err := c.Open(op)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestStreamHeaderRepeatedAttribute: a peer whose stream header repeats an
// attribute fails the open with an error; the client does not panic.
func TestStreamHeaderRepeatedAttribute(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req request
		if gob.NewDecoder(conn).Decode(&req) != nil {
			return
		}
		gob.NewEncoder(conn).Encode(response{Attrs: []rel.Attr{{Name: "K"}, {Name: "K"}}, HasRel: true})
		io.Copy(io.Discard, conn)
	}()
	c := newClient(ln.Addr().String(), 1)
	defer c.Close()
	c.Timeout = 5 * time.Second
	cur, err := c.Open(lqp.Retrieve("BIG"))
	if err == nil {
		cur.Close()
		t.Fatal("a header repeating an attribute was accepted")
	}
	if !strings.Contains(err.Error(), `"K"`) {
		t.Fatalf("error %q does not name the repeated attribute", err)
	}
}
