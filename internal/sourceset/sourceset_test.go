package sourceset

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegistryIntern(t *testing.T) {
	r := NewRegistry()
	ad := r.Intern("AD")
	pd := r.Intern("PD")
	if ad == pd {
		t.Fatal("distinct names share an ID")
	}
	if r.Intern("AD") != ad {
		t.Error("re-interning changed the ID")
	}
	if r.Name(ad) != "AD" || r.Name(pd) != "PD" {
		t.Error("Name lookup wrong")
	}
	if id, ok := r.Lookup("PD"); !ok || id != pd {
		t.Error("Lookup wrong")
	}
	if _, ok := r.Lookup("CD"); ok {
		t.Error("Lookup found an un-interned name")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryNamePanicsOnUnknownID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name on unknown ID did not panic")
		}
	}()
	NewRegistry().Name(7)
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan ID)
	for i := 0; i < 16; i++ {
		go func() { done <- r.Intern("same") }()
	}
	first := <-done
	for i := 1; i < 16; i++ {
		if got := <-done; got != first {
			t.Fatal("concurrent interning produced distinct IDs")
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := Of(1, 3, 3, 2)
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(1) || !s.Contains(2) || !s.Contains(3) || s.Contains(0) {
		t.Error("Contains wrong")
	}
	if Empty().Len() != 0 || !Empty().IsEmpty() || s.IsEmpty() {
		t.Error("emptiness wrong")
	}
	ids := s.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestSetImmutability(t *testing.T) {
	s := Of(1)
	u := s.With(2)
	if s.Contains(2) {
		t.Error("With mutated the receiver")
	}
	if !u.Contains(1) || !u.Contains(2) {
		t.Error("With lost members")
	}
}

func TestSetUnion(t *testing.T) {
	a := Of(1, 2)
	b := Of(2, 3)
	u := a.Union(b)
	if u.Len() != 3 || !u.Contains(1) || !u.Contains(2) || !u.Contains(3) {
		t.Errorf("Union = %v", u.IDs())
	}
	if !a.Union(Empty()).Equal(a) || !Empty().Union(a).Equal(a) {
		t.Error("union with empty is not identity")
	}
}

func TestSetEqualSubset(t *testing.T) {
	a := Of(1, 2)
	if !a.Equal(Of(2, 1)) {
		t.Error("order-insensitive equality failed")
	}
	if a.Equal(Of(1)) || a.Equal(Of(1, 3)) {
		t.Error("unequal sets compare equal")
	}
	if !Of(1).Subset(a) || !a.Subset(a) || a.Subset(Of(1)) {
		t.Error("Subset wrong")
	}
	if !Empty().Subset(a) {
		t.Error("empty not subset")
	}
}

func TestSetOverflowBeyond64(t *testing.T) {
	// IDs >= 64 exercise the overflow slice path.
	s := Of(0, 63, 64, 100, 200)
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
	for _, id := range []ID{0, 63, 64, 100, 200} {
		if !s.Contains(id) {
			t.Errorf("missing %d", id)
		}
	}
	if s.Contains(65) || s.Contains(199) {
		t.Error("spurious members")
	}
	u := s.Union(Of(64, 150))
	if u.Len() != 6 || !u.Contains(150) {
		t.Errorf("overflow union = %v", u.IDs())
	}
	ids := u.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted: %v", ids)
		}
	}
	if !s.With(100).Equal(s) {
		t.Error("re-adding an overflow member changed the set")
	}
}

func TestSetNamesAndFormat(t *testing.T) {
	r := NewRegistry()
	ad := r.Intern("AD")
	pd := r.Intern("PD")
	cd := r.Intern("CD")
	s := Of(cd, ad, pd)
	names := s.Names(r)
	if len(names) != 3 || names[0] != "AD" || names[1] != "PD" || names[2] != "CD" {
		t.Errorf("Names = %v (must follow interning order)", names)
	}
	if got := s.Format(r); got != "{AD, PD, CD}" {
		t.Errorf("Format = %q", got)
	}
	if got := Empty().Format(r); got != "{}" {
		t.Errorf("empty Format = %q", got)
	}
}

func TestSetKey(t *testing.T) {
	if Of(1, 2).Key() != Of(2, 1).Key() {
		t.Error("Key order-sensitive")
	}
	if Of(1).Key() == Of(2).Key() {
		t.Error("distinct sets share a key")
	}
	if Of(1, 64).Key() == Of(1).Key() {
		t.Error("overflow member not in key")
	}
	if Of(64).Key() == Of(65).Key() {
		t.Error("distinct overflow sets share a key")
	}
}

// Property tests over random sets, exercising both the bitset and the
// overflow representations.
func randomSet(r *rand.Rand) Set {
	var s Set
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		s = s.With(ID(r.Intn(96))) // half below 64, half above
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b, c := randomSet(r), randomSet(r), randomSet(r)
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatalf("union not commutative: %v %v", a.IDs(), b.IDs())
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			t.Fatalf("union not associative")
		}
		if !a.Union(a).Equal(a) {
			t.Fatalf("union not idempotent: %v", a.IDs())
		}
		if !a.Subset(a.Union(b)) || !b.Subset(a.Union(b)) {
			t.Fatalf("operands not subsets of union")
		}
		if got := a.Union(b).Len(); got > a.Len()+b.Len() {
			t.Fatalf("union bigger than sum: %d > %d", got, a.Len()+b.Len())
		}
	}
}

// TestSetMatchesSliceSet cross-checks the production Set against the naive
// SliceSet on random unions.
func TestSetMatchesSliceSet(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b Set
		var sa, sb SliceSet
		for _, x := range xs {
			a = a.With(ID(x))
			sa = SliceOf(append(sa, ID(x))...)
		}
		for _, y := range ys {
			b = b.With(ID(y))
			sb = SliceOf(append(sb, ID(y))...)
		}
		u := a.Union(b)
		su := sa.Union(sb)
		if u.Len() != len(su) {
			return false
		}
		for _, id := range su {
			if !u.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceSet(t *testing.T) {
	s := SliceOf(3, 1, 2, 2)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Errorf("SliceOf = %v", s)
	}
	if !s.Contains(2) || s.Contains(9) {
		t.Error("Contains wrong")
	}
	u := SliceOf(1).Union(SliceOf(2))
	if !u.Equal(SliceOf(1, 2)) {
		t.Errorf("Union = %v", u)
	}
	if SliceOf(1).Equal(SliceOf(2)) {
		t.Error("unequal slice sets Equal")
	}
}

func TestSetMinus(t *testing.T) {
	a := Of(1, 2, 3, 70, 80)
	b := Of(2, 80, 99)
	d := a.Minus(b)
	if !d.Equal(Of(1, 3, 70)) {
		t.Errorf("Minus = %v", d.IDs())
	}
	if !a.Minus(Empty()).Equal(a) {
		t.Error("minus empty is not identity")
	}
	if !Empty().Minus(a).IsEmpty() {
		t.Error("empty minus anything should be empty")
	}
	if !a.Minus(a).IsEmpty() {
		t.Error("a minus a should be empty")
	}
}

func TestSetMinusRandom(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		a, b := randomSet(r), randomSet(r)
		d := a.Minus(b)
		for _, id := range d.IDs() {
			if !a.Contains(id) || b.Contains(id) {
				t.Fatalf("Minus wrong member %d", id)
			}
		}
		if !d.Union(a.Union(b)).Equal(a.Union(b)) {
			t.Fatal("Minus escaped the union")
		}
	}
}

// TestSetMinusOverflow pins the single-pass overflow path: survivors keep
// their sorted order and an empty survivor set leaves rest nil-equivalent.
func TestSetMinusOverflow(t *testing.T) {
	s := Of(1, 64, 70, 200)
	d := s.Minus(Of(70))
	if got, want := fmt.Sprint(d.IDs()), fmt.Sprint([]ID{1, 64, 200}); got != want {
		t.Fatalf("Minus overflow = %s, want %s", got, want)
	}
	if !s.Minus(s).Equal(Empty()) {
		t.Error("s \\ s should be empty")
	}
	if !s.Minus(Empty()).Equal(s) {
		t.Error("s \\ {} should be s")
	}
	all := s.Minus(Of(1, 64, 70, 200))
	if !all.IsEmpty() || all.Len() != 0 {
		t.Error("removing every member should leave the empty set")
	}
}

// TestSetLenOverflow checks Len across the bitmask/overflow boundary (the
// bitmask half is counted with math/bits.OnesCount64).
func TestSetLenOverflow(t *testing.T) {
	if got := Of(0, 63, 64, 1000).Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := Empty().Len(); got != 0 {
		t.Fatalf("empty Len = %d, want 0", got)
	}
}
