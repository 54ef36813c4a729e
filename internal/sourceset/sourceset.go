// Package sourceset implements the sets of local-database identifiers that
// the polygen model attaches to every cell: the originating-source set c(o)
// and the intermediate-source set c(i) (paper, §II).
//
// Database names are interned into small integer IDs by a Registry shared
// across one federation. A Set is an immutable value: the first 64 IDs live
// in a bitmask (the common case — the paper's federation has three databases,
// and even a "hundreds of databases" federation mostly touches a handful per
// query), with an ordered overflow slice for larger registries. Union — the
// only operation the algebra performs in inner loops — is a single OR in the
// fast path. The tests hold it to a plain sorted-slice set (slices_test.go).
package sourceset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// ID is an interned database identifier.
type ID uint32

// Registry interns database names. It is safe for concurrent use; LQPs and
// the PQP may resolve names from multiple goroutines.
type Registry struct {
	mu    sync.RWMutex
	byID  []string
	byStr map[string]ID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byStr: make(map[string]ID)}
}

// Intern returns the ID for name, assigning a fresh one on first use.
func (r *Registry) Intern(name string) ID {
	r.mu.RLock()
	id, ok := r.byStr[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byStr[name]; ok {
		return id
	}
	id = ID(len(r.byID))
	r.byID = append(r.byID, name)
	r.byStr[name] = id
	return id
}

// Lookup returns the ID for name if it has been interned.
func (r *Registry) Lookup(name string) (ID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byStr[name]
	return id, ok
}

// Name returns the name for id. It panics on an unknown id: IDs only come
// from Intern, so an unknown one is a cross-registry mix-up.
func (r *Registry) Name(id ID) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) >= len(r.byID) {
		panic(fmt.Sprintf("sourceset: id %d not in registry (size %d)", id, len(r.byID)))
	}
	return r.byID[id]
}

// Len returns the number of interned names.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// Set is an immutable set of IDs. The zero Set is empty.
type Set struct {
	bits uint64 // membership for IDs 0..63
	rest []ID   // sorted, deduplicated IDs >= 64; nil in the fast path
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// Of builds a set from the given IDs.
func Of(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s = s.With(id)
	}
	return s
}

// With returns s ∪ {id}.
func (s Set) With(id ID) Set {
	if id < 64 {
		return Set{bits: s.bits | 1<<id, rest: s.rest}
	}
	i := sort.Search(len(s.rest), func(i int) bool { return s.rest[i] >= id })
	if i < len(s.rest) && s.rest[i] == id {
		return s
	}
	rest := make([]ID, 0, len(s.rest)+1)
	rest = append(rest, s.rest[:i]...)
	rest = append(rest, id)
	rest = append(rest, s.rest[i:]...)
	return Set{bits: s.bits, rest: rest}
}

// Contains reports whether id is a member.
func (s Set) Contains(id ID) bool {
	if id < 64 {
		return s.bits&(1<<id) != 0
	}
	i := sort.Search(len(s.rest), func(i int) bool { return s.rest[i] >= id })
	return i < len(s.rest) && s.rest[i] == id
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool { return s.bits == 0 && len(s.rest) == 0 }

// Len returns the number of members.
func (s Set) Len() int {
	return bits.OnesCount64(s.bits) + len(s.rest)
}

// Union returns s ∪ t. When neither set has overflow members this is a
// single bitwise OR and allocates nothing.
func (s Set) Union(t Set) Set {
	if len(s.rest) == 0 && len(t.rest) == 0 {
		return Set{bits: s.bits | t.bits}
	}
	// Subset fast paths: Sets are immutable, so the superset itself is the
	// union and can be returned as-is, overflow slice shared. The algebra's
	// tag-accumulation loops (OriginUnion folds, MergeTags chains) hit these
	// constantly — a cell's origin set is usually already contained in the
	// running accumulator — and each hit saves a mergeSorted allocation.
	if t.Subset(s) {
		return s
	}
	if s.Subset(t) {
		return t
	}
	return Set{bits: s.bits | t.bits, rest: mergeSorted(s.rest, t.rest)}
}

// Hash64 returns a 64-bit hash of the membership, for hash-bucketed
// dictionary interning of tag sets (core.ColBatch). Equal sets hash
// identically; unequal sets collide only with ordinary hash probability, so
// callers confirm candidates with Equal.
func (s Set) Hash64() uint64 {
	const prime = 0x9E3779B97F4A7C15
	h := (s.bits ^ 0xCBF29CE484222325) * prime
	for _, id := range s.rest {
		h = (h ^ uint64(id)) * prime
	}
	return h
}

func mergeSorted(a, b []ID) []ID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Minus returns s \ t (the members of s not in t). Tag presentation uses it
// to separate "purely intermediate" sources from originating ones. The
// overflow members are filtered in one pass — s.rest is already sorted, so
// the survivors are too.
func (s Set) Minus(t Set) Set {
	out := Set{bits: s.bits &^ t.bits}
	if len(s.rest) == 0 {
		return out
	}
	rest := make([]ID, 0, len(s.rest))
	for _, id := range s.rest {
		if !t.Contains(id) {
			rest = append(rest, id)
		}
	}
	if len(rest) > 0 {
		out.rest = rest
	}
	return out
}

// Equal reports whether s and t have the same members.
func (s Set) Equal(t Set) bool {
	if s.bits != t.bits || len(s.rest) != len(t.rest) {
		return false
	}
	for i := range s.rest {
		if s.rest[i] != t.rest[i] {
			return false
		}
	}
	return true
}

// Subset reports whether every member of s is a member of t.
func (s Set) Subset(t Set) bool {
	if s.bits&^t.bits != 0 {
		return false
	}
	for _, id := range s.rest {
		if !t.Contains(id) {
			return false
		}
	}
	return true
}

// IDs returns the members in ascending order.
func (s Set) IDs() []ID {
	out := make([]ID, 0, s.Len())
	for b, i := s.bits, ID(0); b != 0; b, i = b>>1, i+1 {
		if b&1 != 0 {
			out = append(out, i)
		}
	}
	out = append(out, s.rest...)
	return out
}

// Names resolves the members through reg and returns them in interning
// order (ascending ID), which for the paper's federation (AD, PD, CD interned
// in that order) matches the paper's tag rendering.
func (s Set) Names(reg *Registry) []string {
	ids := s.IDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = reg.Name(id)
	}
	return names
}

// Format renders the set as "{AD, CD}" using reg; the empty set renders "{}".
func (s Set) Format(reg *Registry) string {
	return "{" + strings.Join(s.Names(reg), ", ") + "}"
}

// Key returns a compact string usable as a map key.
func (s Set) Key() string {
	if len(s.rest) == 0 {
		return fmt.Sprintf("%x", s.bits)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%x", s.bits)
	for _, id := range s.rest {
		fmt.Fprintf(&b, ",%d", id)
	}
	return b.String()
}
