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

// FuzzCanonAgreesWithCanonical holds every resolver to the contract the
// engine's Join, Merge and Restrict rely on: canonical values are Identical
// exactly when canonical strings are equal, and Canon is idempotent. The
// fuzzed pair is a kind byte plus a payload each, checked against the seed
// values too.
func FuzzCanonAgreesWithCanonical(f *testing.F) {
	f.Add(byte(3), "", 0.0, byte(3), "", math.Copysign(0, -1)) // -0 beside +0
	f.Add(byte(3), "", math.NaN(), byte(3), "", math.NaN())
	f.Add(byte(2), "", 5.0, byte(3), "", 5.0) // Int(5) beside Float(5)
	f.Add(byte(1), "5", 0.0, byte(2), "", 5.0)
	f.Add(byte(0), "", 0.0, byte(1), "", 0.0) // null beside ""
	f.Add(byte(1), "I.B.M.", 0.0, byte(1), "ibm", 0.0)
	f.Add(byte(1), "  Langley \t Castle ", 0.0, byte(1), "langley castle", 0.0)
	f.Add(byte(1), "Banker's, Trust.", 0.0, byte(1), "BANKERS TRUST", 0.0)
	f.Add(byte(1), "Big Blue", 0.0, byte(1), "DEC", 0.0)
	f.Add(byte(1), "Digital Equipment", 0.0, byte(1), "big blue", 0.0)
	f.Add(byte(1), "\xff", 0.0, byte(1), "\uFFFD", 0.0)
	resolvers := map[string]Resolver{
		"exact":    Exact{},
		"casefold": CaseFold{},
		// Overlapping groups: "IBM" and "DEC" are each claimed by two
		// groups, so the later group owns them, and the first group's
		// first member is not its own.
		"synonyms": NewSynonyms(CaseFold{},
			[]rel.Value{rel.String("IBM"), rel.String("Big Blue")},
			[]rel.Value{rel.String("i.b.m."), rel.String("DEC"), rel.Int(5)},
			[]rel.Value{rel.String("dec"), rel.String("Digital Equipment"), rel.Null()},
		),
	}
	seeds := []rel.Value{
		rel.Null(), rel.Int(5), rel.Float(5), rel.String("5"), rel.String(""),
		rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Float(math.NaN()),
		rel.String("IBM"), rel.String("Big Blue"), rel.String("DEC"), rel.Bool(true),
	}
	value := func(kind byte, s string, x float64) rel.Value {
		switch kind % 5 {
		case 1:
			return rel.String(s)
		case 2:
			return rel.Int(int64(x))
		case 3:
			return rel.Float(x)
		case 4:
			return rel.Bool(x > 0)
		}
		return rel.Null()
	}
	f.Fuzz(func(t *testing.T, k1 byte, s1 string, x1 float64, k2 byte, s2 string, x2 float64) {
		vs := append([]rel.Value{value(k1, s1, x1), value(k2, s2, x2)}, seeds...)
		for name, res := range resolvers {
			for _, v := range vs[:2] {
				c := res.Canon(v)
				if !res.Canon(c).Identical(c) {
					t.Errorf("%s: Canon(%#v) = %#v is not a fixed point", name, v, c)
				}
				for _, w := range vs {
					wantSame := res.Canonical(v) == res.Canonical(w)
					gotSame := c.Identical(res.Canon(w))
					if wantSame != gotSame {
						t.Errorf("%s: Canon agreement for %#v vs %#v = %v, Canonical agreement = %v",
							name, v, w, gotSame, wantSame)
					}
				}
			}
		}
	})
}

// TestCanonStableAcrossGoroutines: concurrent queries probe one shared
// resolver; every goroutine must see the same canonical value.
func TestCanonStableAcrossGoroutines(t *testing.T) {
	s := NewSynonyms(CaseFold{}, []rel.Value{rel.String("IBM"), rel.String("Big Blue")})
	const goroutines = 8
	canon := make([]rel.Value, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				canon[i] = s.Canon(rel.String("big blue"))
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if !canon[i].Identical(canon[0]) {
			t.Fatalf("goroutine %d saw %v, goroutine 0 saw %v", i, canon[i], canon[0])
		}
	}
	if !s.Canon(rel.String("I.B.M.")).Identical(canon[0]) {
		t.Error("synonym group did not canonicalize to one value")
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
