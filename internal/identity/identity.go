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
// string-keyed reference operators. Canon returns the canonical value of the
// same equivalence class — the hot-path form: the polygen engine's Join,
// Merge and Restrict bucket by Canon(v).Hash64 and confirm with Identical,
// exactly as duplicate elimination does with the value itself. The two agree
// by construction: Canon(x).Identical(Canon(y)) iff Canonical(x) ==
// Canonical(y). Resolvers are immutable once built, so one resolver is
// safely shared by any number of concurrent queries.
package identity

import (
	"strconv"
	"strings"

	"repro/internal/rel"
)

// Resolver canonicalizes values for inter-database entity comparison.
type Resolver interface {
	// Canonical returns a key such that two values denote the same
	// real-world instance iff their keys are equal.
	Canonical(v rel.Value) string
	// Canon returns the canonical value of v's equivalence class: two
	// values denote the same real-world instance iff their canonical values
	// are Identical. Canon is idempotent.
	Canon(v rel.Value) rel.Value
}

// Exact is a Resolver under which values match only if they are identical.
type Exact struct{}

// Canonical implements Resolver.
func (Exact) Canonical(v rel.Value) string { return v.Key() }

// Canon implements Resolver: every value is its own canonical value.
func (Exact) Canon(v rel.Value) rel.Value { return v }

// CaseFold matches strings case-insensitively with whitespace and
// punctuation normalization ("CitiCorp" ≡ "Citicorp", "I.B.M." ≡ "IBM").
// Non-string values fall back to exact matching. For every value,
// Canonical(v) == Canon(v).Key().
type CaseFold struct{}

// Canonical implements Resolver.
func (CaseFold) Canonical(v rel.Value) string { return CaseFold{}.Canon(v).Key() }

// Canon implements Resolver: a string canonicalizes to its folded spelling.
func (CaseFold) Canon(v rel.Value) rel.Value {
	if v.Kind() != rel.KindString {
		return v
	}
	s := v.Str()
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := false
	for _, r := range s {
		switch {
		case r == '.' || r == ',' || r == '\'':
			// Punctuation commonly differing across databases is dropped.
		case r == ' ' || r == '\t':
			if !prevSpace && b.Len() > 0 {
				b.WriteByte(' ')
				prevSpace = true
			}
		default:
			b.WriteRune(foldRune(r))
			prevSpace = false
		}
	}
	return rel.String(strings.TrimRight(b.String(), " "))
}

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
	inner Resolver
	table map[string]*synonymGroup // inner-canonical form -> its group
}

// synonymGroup is one group's two canonical forms.
type synonymGroup struct {
	key string    // Canonical form
	rep rel.Value // Canon form: inner.Canon of a member the group kept
}

// NewSynonyms builds a Synonyms resolver over inner. Each group lists values
// that denote the same instance; a value listed in several groups belongs to
// the last of them.
func NewSynonyms(inner Resolver, groups ...[]rel.Value) *Synonyms {
	s := &Synonyms{inner: inner, table: make(map[string]*synonymGroup)}
	// Walking the groups last to first gives every value its last group. A
	// group's representative is a member it kept, so no other group and no
	// value outside the table can share it.
	for gi := len(groups) - 1; gi >= 0; gi-- {
		g := groups[gi]
		if len(g) == 0 {
			continue
		}
		// The group index makes the key unique; the representative's
		// canonical form is appended for debuggability only. (string(rune(gi))
		// was wrong here: surrogate-range indices all map to U+FFFD, silently
		// merging distinct groups.)
		grp := &synonymGroup{key: "\x00g" + strconv.Itoa(gi) + "\x01" + inner.Canonical(g[0])}
		hasRep := false
		for _, v := range g {
			c := inner.Canonical(v)
			if _, taken := s.table[c]; taken {
				continue
			}
			if !hasRep {
				grp.rep, hasRep = inner.Canon(v), true
			}
			s.table[c] = grp
		}
	}
	return s
}

// Canonical implements Resolver.
func (s *Synonyms) Canonical(v rel.Value) string {
	c := s.inner.Canonical(v)
	if g, ok := s.table[c]; ok {
		return g.key
	}
	return c
}

// Canon implements Resolver.
func (s *Synonyms) Canon(v rel.Value) rel.Value {
	if g, ok := s.table[s.inner.Canonical(v)]; ok {
		return g.rep
	}
	return s.inner.Canon(v)
}
