package rel

import (
	"hash/maphash"
	"math"
	"testing"
	"testing/quick"
)

// TestHash64AgreesWithEqual: Equal values must hash identically, and (with
// overwhelming probability) unequal values differently under one seed.
func TestHash64AgreesWithEqual(t *testing.T) {
	seed := maphash.MakeSeed()
	values := []Value{
		Null(), String(""), String("a"), String("ab"), String("\x00"),
		Int(0), Int(1), Int(-1), Float(0), Float(1), Float(-1),
		Bool(true), Bool(false),
	}
	for _, v := range values {
		for _, w := range values {
			hv, hw := v.Hash64(seed), w.Hash64(seed)
			if v.Equal(w) && hv != hw {
				t.Errorf("%v and %v are Equal but hash to %x and %x", v, w, hv, hw)
			}
			if !v.Equal(w) && hv == hw {
				t.Errorf("%v and %v are unequal but share hash %x", v, w, hv)
			}
		}
	}
}

// TestHash64SignedZero: Equal treats +0.0 and -0.0 as equal, so they must
// share a hash.
func TestHash64SignedZero(t *testing.T) {
	seed := maphash.MakeSeed()
	pos, neg := Float(0), Float(math.Copysign(0, -1))
	if !pos.Equal(neg) {
		t.Fatal("premise: +0 and -0 should be Equal")
	}
	if pos.Hash64(seed) != neg.Hash64(seed) {
		t.Error("+0 and -0 hash differently")
	}
}

// TestTupleHash64Framing: string payloads are length-prefixed, so shifting
// bytes between adjacent values must change the tuple hash.
func TestTupleHash64Framing(t *testing.T) {
	seed := maphash.MakeSeed()
	a := Tuple{String("ab"), String("c")}
	b := Tuple{String("a"), String("bc")}
	if a.Hash64(seed) == b.Hash64(seed) {
		t.Error(`("ab","c") and ("a","bc") share a tuple hash`)
	}
	if a.Hash64(seed) != (Tuple{String("ab"), String("c")}).Hash64(seed) {
		t.Error("tuple hash unstable")
	}
}

// TestTupleHash64Quick: random string tuples hash equal iff Equal.
func TestTupleHash64Quick(t *testing.T) {
	seed := maphash.MakeSeed()
	f := func(a, b []string) bool {
		ta := make(Tuple, len(a))
		for i, s := range a {
			ta[i] = String(s)
		}
		tb := make(Tuple, len(b))
		for i, s := range b {
			tb[i] = String(s)
		}
		return ta.Equal(tb) == (ta.Hash64(seed) == tb.Hash64(seed))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPartitionOf: partitions are in range, deterministic, and — for the
// shard routing's co-location invariant — a function of the hash alone,
// including at non-power-of-two counts.
func TestPartitionOf(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7, 16, 64} {
		counts := make([]int, parts)
		for i := 0; i < 10000; i++ {
			h := Tuple{Int(int64(i))}.Hash64(Seed)
			w := PartitionOf(h, parts)
			if w < 0 || w >= parts {
				t.Fatalf("parts=%d: partition %d out of range", parts, w)
			}
			if again := PartitionOf(h, parts); again != w {
				t.Fatalf("parts=%d: partition not deterministic", parts)
			}
			counts[w]++
		}
		if parts > 1 {
			// Hashes are uniform, so no partition should be empty at 10000
			// draws (probability ~ (1-1/parts)^10000, i.e. never).
			for w, c := range counts {
				if c == 0 {
					t.Fatalf("parts=%d: partition %d empty — skewed range reduction", parts, w)
				}
			}
		}
	}
	if PartitionOf(^uint64(0), 7) != 6 {
		t.Fatalf("max hash must land in the last partition")
	}
	if PartitionOf(12345, 0) != 0 || PartitionOf(12345, -1) != 0 {
		t.Fatalf("parts < 1 must collapse to partition 0")
	}
}
