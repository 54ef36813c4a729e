package main

// What a correct answer is. Before timing, every distinct known query text
// is answered twice: through the full topology, and by the oracle — an
// in-process PQP over the same generated catalogs, unsharded and in memory,
// running the unoptimized plan on the materializing reference engine
// (pqp.ExecuteMaterialized). The two answers must agree cell for cell and
// tag for tag. During the timed run every answer's row count and an
// order-independent checksum over cells and tags are compared with the
// oracle's.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/pqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
	"repro/internal/translate"
)

// oracle answers query texts independently of the topology under test.
type oracle struct {
	q *pqp.PQP
}

func newOracle(spec federationSpec) *oracle {
	lqps := make(map[string]lqp.LQP, len(spec.sources))
	for _, src := range spec.sources {
		lqps[src.db.Name()] = lqp.NewLocal(src.db)
	}
	return &oracle{q: pqp.New(spec.schema, spec.registry, nil, lqps)}
}

func (o *oracle) answer(text string) (*core.Relation, error) {
	e, err := translate.ParseExpr(text)
	if err != nil {
		return nil, err
	}
	pom, err := translate.Analyze(e)
	if err != nil {
		return nil, err
	}
	half, err := translate.PassOne(pom, o.q.Schema())
	if err != nil {
		return nil, err
	}
	iom, err := translate.PassTwo(half, o.q.Schema())
	if err != nil {
		return nil, err
	}
	return o.q.ExecuteMaterialized(iom)
}

// answerSum fingerprints a tagged answer: its cardinality and the wrapping
// sum of its rows' hashes, so row order does not matter.
type answerSum struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 0xCBF29CE484222325
	fnvPrime  = 0x100000001B3
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xFF)) * fnvPrime
		v >>= 8
	}
	return h
}

func hashValue(h uint64, v rel.Value) uint64 {
	h = (h ^ uint64(v.Kind())) * fnvPrime
	switch v.Kind() {
	case rel.KindString:
		return fnvString(h, v.Str())
	case rel.KindInt:
		return fnvUint(h, uint64(v.IntVal()))
	case rel.KindFloat:
		return fnvUint(h, math.Float64bits(v.FloatVal()))
	case rel.KindBool:
		if v.BoolVal() {
			return fnvUint(h, 1)
		}
	}
	return h
}

// summer fingerprints answers whose tags are interned in one registry. Tag
// sets hash by source name, so two registries that numbered the sources
// differently still agree. Not safe for concurrent use: every client and
// the oracle own one.
type summer struct {
	reg  *sourceset.Registry
	memo map[uint64]uint64 // Set.Hash64 -> name-based hash
}

func newSummer(reg *sourceset.Registry) *summer {
	return &summer{reg: reg, memo: make(map[uint64]uint64)}
}

func (s *summer) set(t sourceset.Set) uint64 {
	key := t.Hash64()
	if h, ok := s.memo[key]; ok {
		return h
	}
	var h uint64
	for _, name := range t.Names(s.reg) {
		h += fnvString(fnvOffset, name)
	}
	s.memo[key] = h
	return h
}

func (s *summer) row(t core.Tuple) uint64 {
	h := uint64(fnvOffset)
	for _, c := range t {
		h = hashValue(h, c.D)
		h = fnvUint(h, s.set(c.O))
		h = fnvUint(h, s.set(c.I))
	}
	return h
}

func (s *summer) relation(p *core.Relation) answerSum {
	out := answerSum{rows: len(p.Tuples)}
	for _, t := range p.Tuples {
		out.sum += s.row(t)
	}
	return out
}

// sortedNames renders a tag set by source name, independent of how the
// registry numbered the sources.
func sortedNames(t sourceset.Set, reg *sourceset.Registry) string {
	names := t.Names(reg)
	sort.Strings(names)
	return strings.Join(names, ",")
}

// canonicalRows renders every row with its tags by name, sorted: the exact
// comparison form of the pre-run oracle check.
func canonicalRows(p *core.Relation) []string {
	rows := make([]string, len(p.Tuples))
	var b strings.Builder
	for i, t := range p.Tuples {
		b.Reset()
		for _, c := range t {
			b.WriteString(c.D.Key())
			b.WriteByte('{')
			b.WriteString(sortedNames(c.O, p.Reg))
			b.WriteByte('|')
			b.WriteString(sortedNames(c.I, p.Reg))
			b.WriteByte('}')
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return rows
}

// sameAnswer reports the first difference between two tagged answers, or nil
// when they hold the same rows with the same tags under the same attributes.
func sameAnswer(got, want *core.Relation) error {
	if g, w := strings.Join(got.AttrNames(), ","), strings.Join(want.AttrNames(), ","); g != w {
		return fmt.Errorf("attributes [%s], oracle has [%s]", g, w)
	}
	g, w := canonicalRows(got), canonicalRows(want)
	if len(g) != len(w) {
		return fmt.Errorf("%d rows, oracle has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %d of the sorted answer is %q, oracle has %q", i, g[i], w[i])
		}
	}
	return nil
}
