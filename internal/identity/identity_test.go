package identity

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/rel"
)

func TestExact(t *testing.T) {
	e := Exact{}
	if e.Canonical(rel.String("IBM")) == e.Canonical(rel.String("ibm")) {
		t.Error("Exact folded case")
	}
	if e.Canonical(rel.String("IBM")) != e.Canonical(rel.String("IBM")) {
		t.Error("Exact unstable")
	}
	if e.Canonical(rel.Int(1)) == e.Canonical(rel.String("1")) {
		t.Error("Exact conflated kinds")
	}
}

func TestCaseFoldPaperCases(t *testing.T) {
	cf := CaseFold{}
	same := [][2]string{
		{"CitiCorp", "Citicorp"}, // the worked example's mismatch
		{"IBM", "I.B.M."},        // §I's example
		{"IBM", "ibm"},
		{"Banker's Trust", "Bankers Trust"},
		{"AT&T", "at&t"},
		{"Langley  Castle", "Langley Castle"}, // internal whitespace
		{" DEC", "DEC"},                       // leading whitespace
		{"DEC ", "DEC"},                       // trailing whitespace
	}
	for _, c := range same {
		if cf.Canonical(rel.String(c[0])) != cf.Canonical(rel.String(c[1])) {
			t.Errorf("CaseFold should match %q and %q", c[0], c[1])
		}
	}
	diff := [][2]string{
		{"IBM", "DEC"},
		{"Ford", "Fordham"},
		{"", "x"},
	}
	for _, c := range diff {
		if cf.Canonical(rel.String(c[0])) == cf.Canonical(rel.String(c[1])) {
			t.Errorf("CaseFold should distinguish %q and %q", c[0], c[1])
		}
	}
}

func TestCaseFoldNonStrings(t *testing.T) {
	cf := CaseFold{}
	if cf.Canonical(rel.Int(1)) == cf.Canonical(rel.Int(2)) {
		t.Error("distinct ints conflated")
	}
	if cf.Canonical(rel.Int(1)) != cf.Canonical(rel.Int(1)) {
		t.Error("int canonicalization unstable")
	}
	if cf.Canonical(rel.Null()) != rel.Null().Key() {
		t.Error("null should fall back to exact key")
	}
}

func TestSynonyms(t *testing.T) {
	s := NewSynonyms(CaseFold{},
		[]rel.Value{rel.String("Big Blue"), rel.String("IBM")},
		[]rel.Value{rel.String("DEC"), rel.String("Digital Equipment")},
	)
	if s.Canonical(rel.String("big blue")) != s.Canonical(rel.String("I.B.M.")) {
		t.Error("synonym group (via inner CaseFold) not matched")
	}
	if s.Canonical(rel.String("DEC")) != s.Canonical(rel.String("Digital Equipment")) {
		t.Error("second synonym group not matched")
	}
	if s.Canonical(rel.String("IBM")) == s.Canonical(rel.String("DEC")) {
		t.Error("distinct groups conflated")
	}
	if s.Canonical(rel.String("Oracle")) != (CaseFold{}).Canonical(rel.String("Oracle")) {
		t.Error("non-synonym should fall through to inner resolver")
	}
}

func TestSynonymsEmptyGroup(t *testing.T) {
	s := NewSynonyms(Exact{}, nil, []rel.Value{})
	if s.Canonical(rel.String("x")) != (Exact{}).Canonical(rel.String("x")) {
		t.Error("empty groups should be ignored")
	}
}

// TestCanonicalIDAgreesWithCanonical: for every resolver, interned IDs are
// equal exactly when canonical strings are — the contract the hash-native
// Join/Merge/Restrict paths rely on.
func TestCanonicalIDAgreesWithCanonical(t *testing.T) {
	resolvers := map[string]Resolver{
		"exact":    Exact{},
		"casefold": CaseFold{},
		"synonyms": NewSynonyms(CaseFold{},
			[]rel.Value{rel.String("Big Blue"), rel.String("IBM")},
		),
	}
	values := []rel.Value{
		rel.String("IBM"), rel.String("I.B.M."), rel.String("ibm"),
		rel.String("Big Blue"), rel.String("DEC"), rel.String(""),
		rel.Int(1), rel.Int(2), rel.Float(1), rel.Bool(true), rel.Null(),
		rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Float(math.NaN()),
	}
	for name, res := range resolvers {
		for _, v := range values {
			for _, w := range values {
				wantSame := res.Canonical(v) == res.Canonical(w)
				gotSame := res.CanonicalID(v) == res.CanonicalID(w)
				if wantSame != gotSame {
					t.Errorf("%s: CanonicalID equality for %v vs %v = %v, Canonical equality = %v",
						name, v, w, gotSame, wantSame)
				}
			}
		}
	}
}

// TestCanonicalIDStableAcrossGoroutines: concurrent queries probe one
// shared resolver; every goroutine must see the same ID.
func TestCanonicalIDStableAcrossGoroutines(t *testing.T) {
	s := NewSynonyms(CaseFold{}, []rel.Value{rel.String("IBM"), rel.String("Big Blue")})
	const goroutines = 8
	ids := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				ids[i] = s.CanonicalID(rel.String("big blue"))
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("goroutine %d saw ID %d, goroutine 0 saw %d", i, ids[i], ids[0])
		}
	}
	if s.CanonicalID(rel.String("I.B.M.")) != ids[0] {
		t.Error("synonym group did not intern to one ID")
	}
}

// TestSynonymsSurrogateRangeGroups is the regression test for the group-key
// construction: string(rune(gi)) mapped every surrogate-range group index
// (0xD800–0xDFFF) to U+FFFD, silently merging distinct synonym groups.
func TestSynonymsSurrogateRangeGroups(t *testing.T) {
	groups := make([][]rel.Value, 0xD802)
	for i := range groups {
		groups[i] = []rel.Value{rel.String("member-" + strconv.Itoa(i))}
	}
	s := NewSynonyms(Exact{}, groups...)
	a := s.Canonical(rel.String("member-55296")) // group 0xD800
	b := s.Canonical(rel.String("member-55297")) // group 0xD801
	if a == b {
		t.Fatalf("groups 0xD800 and 0xD801 merged: both canonicalize to %q", a)
	}
}

// TestFlushInternCaches: a flush at a quiescent point releases the global
// tables and fresh IDs still satisfy the CanonicalID contract.
func TestFlushInternCaches(t *testing.T) {
	a := Exact{}.CanonicalID(rel.String("flush-me"))
	FlushInternCaches()
	b := Exact{}.CanonicalID(rel.String("flush-me"))
	c := Exact{}.CanonicalID(rel.String("flush-me"))
	if b != c {
		t.Fatal("post-flush IDs unstable")
	}
	if (Exact{}).CanonicalID(rel.String("other")) == b {
		t.Fatal("post-flush IDs conflate distinct values")
	}
	_ = a // pre-flush IDs are not comparable with post-flush ones by contract
}
