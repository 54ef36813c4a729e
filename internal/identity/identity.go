// Package identity implements inter-database instance identification: the
// paper assumes (§I) that "the inter-database instance identifier mismatching
// problem (e.g., IBM vs. I.B.M.) has been resolved and the information is
// available for the PQP to use". The worked example relies on it — the
// Alumni Database spells the bank "CitiCorp" while the Placement Database
// spells it "Citicorp", yet Appendix A joins them as one entity.
//
// A Resolver canonicalizes a value for entity comparison. The polygen
// processor applies the resolver to attribute–attribute equality comparisons
// (Join, Merge, Restrict between two attributes); constant Selects use exact
// matching, as the paper's Table 4 does for DEG = "MBA".
//
// Resolvers expose two forms of the canonical identity. Canonical returns
// the canonical string — the reference form, used for rendering and by the
// string-keyed reference operators. CanonicalID returns a small interned
// uint64 for the same equivalence class — the hot-path form: the polygen
// engine's Join, Merge and Restrict probe maps of uint64 instead of
// allocating a canonical string per comparison. The two agree by
// construction: CanonicalID(x) == CanonicalID(y) iff Canonical(x) ==
// Canonical(y).
package identity

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rel"
)

// Resolver canonicalizes values for inter-database entity comparison.
type Resolver interface {
	// Canonical returns a key such that two values denote the same
	// real-world instance iff their keys are equal.
	Canonical(v rel.Value) string
	// CanonicalID returns an interned identifier for the value's canonical
	// form: two values denote the same real-world instance iff their IDs are
	// equal. IDs are only comparable across calls to the same resolver.
	// Implementations are safe for concurrent use (one PQP's concurrent
	// queries probe one shared resolver from many goroutines).
	CanonicalID(v rel.Value) uint64
}

// interner assigns dense uint64 IDs to canonical forms. The hot path — a
// join probing the same resolver once per tuple — reads an immutable
// snapshot map through an atomic pointer, so steady-state probes take no
// lock and allocate nothing. Misses fall into the mutex-guarded master
// tables; the snapshot is republished on rough doublings, which keeps the
// total copying linear in the number of distinct values ever interned.
// String values (the common case in the paper's federations) are cached by
// their raw string payload, which hashes as cheaply as the canonical-string
// keys the engine used to build — minus the per-probe allocation; other
// kinds are cached by the comparable rel.Value itself. byCanon guarantees
// that distinct values with equal canonical strings share an ID.
type interner struct {
	fastStr   atomic.Pointer[map[string]uint64]
	fastOther atomic.Pointer[map[rel.Value]uint64]

	mu       sync.Mutex
	byStr    map[string]uint64
	byOther  map[rel.Value]uint64
	byCanon  map[string]uint64
	pubStr   int // len(byStr) at last snapshot publish
	pubOther int // len(byOther) at last snapshot publish
}

// id returns the interned ID of v's canonical form under canon.
func (in *interner) id(v rel.Value, canon func(rel.Value) string) uint64 {
	if v.Kind() == rel.KindString {
		if m := in.fastStr.Load(); m != nil {
			if id, ok := (*m)[v.Str()]; ok {
				return id
			}
		}
	} else if cacheableValue(v) {
		if m := in.fastOther.Load(); m != nil {
			if id, ok := (*m)[v]; ok {
				return id
			}
		}
	}
	return in.slow(v, canon)
}

// cacheableValue reports whether v can key a cache map. NaN is never equal
// to itself, so a NaN key would miss on every probe and grow the table
// unboundedly; it is routed through byCanon only (strconv formats every NaN
// identically, so the ID is still stable).
func cacheableValue(v rel.Value) bool {
	return !(v.Kind() == rel.KindFloat && v.FloatVal() != v.FloatVal())
}

func (in *interner) slow(v rel.Value, canon func(rel.Value) string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.byCanon == nil {
		in.byStr = make(map[string]uint64)
		in.byOther = make(map[rel.Value]uint64)
		in.byCanon = make(map[string]uint64)
	}
	isStr := v.Kind() == rel.KindString
	var id uint64
	var ok bool
	switch {
	case isStr:
		id, ok = in.byStr[v.Str()]
	case cacheableValue(v):
		id, ok = in.byOther[v]
	}
	if !ok {
		c := canon(v)
		id, ok = in.byCanon[c]
		if !ok {
			id = uint64(len(in.byCanon)) + 1
			in.byCanon[c] = id
		}
		switch {
		case isStr:
			in.byStr[v.Str()] = id
		case cacheableValue(v):
			in.byOther[v] = id
		}
	}
	in.maybePublish()
	return id
}

// maybePublish refreshes the lock-free snapshots once the master tables have
// grown past roughly double their size at the previous publish (with a small
// floor so tiny tables publish promptly). Copying on doublings bounds total
// copy work at O(distinct values).
func (in *interner) maybePublish() {
	if len(in.byStr) >= in.pubStr*2+16 {
		m := make(map[string]uint64, len(in.byStr)*2)
		for k, id := range in.byStr {
			m[k] = id
		}
		in.fastStr.Store(&m)
		in.pubStr = len(in.byStr)
	}
	if len(in.byOther) >= in.pubOther*2+16 {
		m := make(map[rel.Value]uint64, len(in.byOther)*2)
		for k, id := range in.byOther {
			m[k] = id
		}
		in.fastOther.Store(&m)
		in.pubOther = len(in.byOther)
	}
}

// Scoped wraps a resolver with an intern table of its own, so the memory
// retained by CanonicalID is bounded by the wrapper's lifetime instead of
// the process's. The polygen algebra wraps its resolver in a Scoped at
// construction: one engine instance, one table, reclaimed with the engine.
type Scoped struct {
	inner  Resolver
	intern interner
}

// NewScoped returns inner wrapped with its own intern table. An already
// scoped resolver is returned unchanged.
func NewScoped(inner Resolver) Resolver {
	if s, ok := inner.(*Scoped); ok {
		return s
	}
	return &Scoped{inner: inner}
}

// Canonical implements Resolver by delegating to the wrapped resolver.
func (s *Scoped) Canonical(v rel.Value) string { return s.inner.Canonical(v) }

// CanonicalID implements Resolver over the wrapper's own table.
func (s *Scoped) CanonicalID(v rel.Value) uint64 { return s.intern.id(v, s.inner.Canonical) }

// Exact is a Resolver under which values match only if they are identical.
type Exact struct{}

// exactIntern backs Exact.CanonicalID. Exact is stateless — every Exact{}
// denotes the same resolver — so one process-wide table is its per-resolver
// intern table. The table grows with the number of distinct values ever
// compared through the bare singleton; the algebra avoids that by probing
// through a per-engine Scoped wrapper, and long-running callers that do use
// the singletons directly can call FlushInternCaches at quiescent points.
var exactIntern interner

// FlushInternCaches drops the process-wide intern tables behind the
// stateless resolvers (Exact, CaseFold), releasing all memory they retain.
// IDs issued before a flush are not comparable with IDs issued after it, so
// the caller must guarantee no query is being evaluated during the call —
// e.g. a server's idle-time maintenance between plans. Operators never
// retain canonical IDs across calls, so flushing between queries is safe.
func FlushInternCaches() {
	exactIntern.flush()
	caseFoldIntern.flush()
}

// flush resets the interner to its zero state.
func (in *interner) flush() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.byStr, in.byOther, in.byCanon = nil, nil, nil
	in.pubStr, in.pubOther = 0, 0
	in.fastStr.Store(nil)
	in.fastOther.Store(nil)
}

// Canonical implements Resolver.
func (Exact) Canonical(v rel.Value) string { return v.Key() }

// CanonicalID implements Resolver.
func (Exact) CanonicalID(v rel.Value) uint64 { return exactIntern.id(v, Exact{}.Canonical) }

// CaseFold matches strings case-insensitively with whitespace and
// punctuation normalization ("CitiCorp" ≡ "Citicorp", "I.B.M." ≡ "IBM").
// Non-string values fall back to exact matching.
type CaseFold struct{}

// caseFoldIntern backs CaseFold.CanonicalID; like Exact, CaseFold is a
// stateless singleton resolver.
var caseFoldIntern interner

// Canonical implements Resolver.
func (CaseFold) Canonical(v rel.Value) string {
	if v.Kind() != rel.KindString {
		return v.Key()
	}
	s := v.Str()
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteString("\x00s")
	prevSpace := false
	for _, r := range s {
		switch {
		case r == '.' || r == ',' || r == '\'':
			// Punctuation commonly differing across databases is dropped.
		case r == ' ' || r == '\t':
			if !prevSpace && b.Len() > 2 {
				b.WriteByte(' ')
				prevSpace = true
			}
			continue
		default:
			b.WriteRune(foldRune(r))
			prevSpace = false
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// CanonicalID implements Resolver.
func (CaseFold) CanonicalID(v rel.Value) uint64 { return caseFoldIntern.id(v, CaseFold{}.Canonical) }

func foldRune(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}

// Synonyms resolves via an explicit synonym table layered over an inner
// resolver: every value in a synonym group canonicalizes to the group's
// representative. This models the paper's assumption that resolved identifier
// mappings "are available for the PQP to use" as data.
type Synonyms struct {
	inner  Resolver
	table  map[string]string // inner-canonical form -> group key
	intern interner
}

// NewSynonyms builds a Synonyms resolver over inner. Each group lists values
// that denote the same instance.
func NewSynonyms(inner Resolver, groups ...[]rel.Value) *Synonyms {
	s := &Synonyms{inner: inner, table: make(map[string]string)}
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		// The group index makes the key unique; the representative's
		// canonical form is appended for debuggability only. (string(rune(gi))
		// was wrong here: surrogate-range indices all map to U+FFFD, silently
		// merging distinct groups.)
		key := "\x00g" + strconv.Itoa(gi) + "\x01" + s.inner.Canonical(g[0])
		for _, v := range g {
			s.table[s.inner.Canonical(v)] = key
		}
	}
	return s
}

// Canonical implements Resolver.
func (s *Synonyms) Canonical(v rel.Value) string {
	c := s.inner.Canonical(v)
	if g, ok := s.table[c]; ok {
		return g
	}
	return c
}

// CanonicalID implements Resolver.
func (s *Synonyms) CanonicalID(v rel.Value) uint64 { return s.intern.id(v, s.Canonical) }
