package main

// The span recorder of the traced run. Every shim (shims.go) brackets the
// call it forwards with one span: name, start, end, the span that caused it
// and the operation it belongs to. Spans stay in memory until the run ends.
//
// A span learns its parent in one of three ways, all from outside the
// system under test:
//
//   - by session: the mediator shim sees the session ID of the request, and
//     every closed-loop client owns one session, so the client's current
//     span is the parent;
//   - by goroutine: the PQP opens its LQP rows on the goroutine that runs
//     Mediator.Query, and the store appends to its log on the goroutine
//     that runs Insert, so the shim below finds the shim above in a table
//     keyed by goroutine ID;
//   - by tag: between the PQP and the lqpd servers an operation crosses
//     goroutines and a TCP connection, so the shim above writes its span
//     into a field of the local operation that no layer reads (opTag) and
//     the shim below strips it off again.

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lqp"
)

// spanRef names a span and the operation (one client request) it serves.
type spanRef struct{ op, span int64 }

// span is one recorded call. Times are nanoseconds since the recorder's
// epoch; N counts what the call moved (rows for cursor and query spans,
// bytes for file spans).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s *span) ref() spanRef { return spanRef{op: s.Op, span: s.ID} }

type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	sessions sync.Map // session ID -> *atomic.Pointer[spanRef], the client's current span
	gos      sync.Map // goroutine ID -> spanRef of the shim span running on it
	inserts  sync.Map // first key of an insert batch -> spanRef of the client span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// root starts the span of a new operation.
func (r *recorder) root(name string) *span {
	id := r.ids.Add(1)
	return &span{ID: id, Op: id, Name: name, Start: r.now()}
}

// start begins a child span.
func (r *recorder) start(name, label string, parent spanRef) *span {
	return &span{ID: r.ids.Add(1), Parent: parent.span, Op: parent.op, Name: name, Label: label, Start: r.now()}
}

// finish ends the span and keeps it.
func (r *recorder) finish(s *span, n int64) {
	s.End, s.N = r.now(), n
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// sessionSlot returns the slot a client publishes its current span in.
func (r *recorder) sessionSlot(session string) *atomic.Pointer[spanRef] {
	slot, _ := r.sessions.LoadOrStore(session, new(atomic.Pointer[spanRef]))
	return slot.(*atomic.Pointer[spanRef])
}

// bySession finds the client span that sent a request under session.
func (r *recorder) bySession(session string) (spanRef, bool) {
	if !r.on.Load() {
		return spanRef{}, false
	}
	slot, ok := r.sessions.Load(session)
	if !ok {
		return spanRef{}, false
	}
	ref := slot.(*atomic.Pointer[spanRef]).Load()
	if ref == nil {
		return spanRef{}, false
	}
	return *ref, true
}

// onGoroutine runs f with ref published as this goroutine's current span.
func (r *recorder) onGoroutine(ref spanRef, f func()) {
	g := goid()
	r.gos.Store(g, ref)
	defer r.gos.Delete(g)
	f()
}

// byGoroutine finds the shim span running on the calling goroutine.
func (r *recorder) byGoroutine() (spanRef, bool) {
	if !r.on.Load() {
		return spanRef{}, false
	}
	ref, ok := r.gos.Load(goid())
	if !ok {
		return spanRef{}, false
	}
	return ref.(spanRef), true
}

// goid reads the calling goroutine's ID off its stack header ("goroutine 42
// [running]:"). The runtime offers no other way to ask, and the header's
// shape has not changed since Go 1.0; only traced runs call it.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// opTag marks a span reference riding in a local operation.
const opTag = "\x00span "

// tagOp returns op carrying ref in a field the operation's kind never
// reads: Attrs for a Restrict, Attr2 for every other kind.
func tagOp(op lqp.Op, ref spanRef) lqp.Op {
	tag := opTag + strconv.FormatInt(ref.op, 36) + " " + strconv.FormatInt(ref.span, 36)
	if op.Kind == lqp.OpRestrict {
		op.Attrs = []string{tag}
	} else {
		op.Attr2 = tag
	}
	return op
}

// untagOp strips the reference tagOp wrote, if any.
func untagOp(op lqp.Op) (lqp.Op, spanRef, bool) {
	var tag string
	if op.Kind == lqp.OpRestrict {
		if len(op.Attrs) != 1 {
			return op, spanRef{}, false
		}
		tag = op.Attrs[0]
	} else {
		tag = op.Attr2
	}
	rest, ok := strings.CutPrefix(tag, opTag)
	if !ok {
		return op, spanRef{}, false
	}
	a, b, _ := strings.Cut(rest, " ")
	opID, err1 := strconv.ParseInt(a, 36, 64)
	spanID, err2 := strconv.ParseInt(b, 36, 64)
	if err1 != nil || err2 != nil {
		return op, spanRef{}, false
	}
	if op.Kind == lqp.OpRestrict {
		op.Attrs = nil
	} else {
		op.Attr2 = ""
	}
	return op, spanRef{op: opID, span: spanID}, true
}

// withBase returns p with its base operation replaced; the steps are shared.
func withBase(p lqp.Plan, base lqp.Op) lqp.Plan {
	ops := make([]lqp.Op, len(p.Ops))
	copy(ops, p.Ops)
	ops[0] = base
	return lqp.Plan{Ops: ops}
}

// interval is a half-open stretch of the recorder's clock.
type interval struct{ a, b int64 }

// merged sorts ivs and joins the ones that touch, so the result is disjoint
// and ascending. It reorders its argument.
func merged(ivs []interval) []interval {
	if len(ivs) < 2 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.a <= last.b {
			if iv.b > last.b {
				last.b = iv.b
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.b - iv.a
	}
	return n
}

// minus returns the parts of a that no interval of b covers. Both must be
// merged.
func minus(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		at := iv.a
		for j < len(b) && b[j].b <= at {
			j++
		}
		for k := j; k < len(b) && b[k].a < iv.b; k++ {
			if b[k].a > at {
				out = append(out, interval{at, b[k].a})
			}
			if b[k].b > at {
				at = b[k].b
			}
		}
		if at < iv.b {
			out = append(out, interval{at, iv.b})
		}
	}
	return out
}

// clip returns the parts of ivs inside [lo, hi). ivs must be merged.
func clip(ivs []interval, lo, hi int64) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.a < lo {
			iv.a = lo
		}
		if iv.b > hi {
			iv.b = hi
		}
		if iv.a < iv.b {
			out = append(out, iv)
		}
	}
	return out
}
