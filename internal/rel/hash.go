package rel

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// This file implements the hash-native identity path: instead of
// materializing a string key per value (Value.Key) or per tuple (Tuple.Key)
// in every dedup or join inner loop, callers derive a 64-bit hash and bucket
// by it, confirming candidates with Equal on collision. Value.Key stays as
// the rendering and reference-semantics form; the hash is the hot-path form.
//
// Hashing is one-shot and combinable: every value hashes independently to a
// 64-bit word (via maphash.String/maphash.Bytes — no incremental hash state,
// no per-value allocation), and a tuple hash is the HashFold of its value
// hashes in column order, so a caller that hashes its key columns one at a
// time (the catalog's primary-key index) gets the same word as Tuple.Hash64
// of the key projection.

// nanBits is the canonical bit pattern hashed for every NaN payload.
const nanBits = 0x7FF8000000000001

// Seed is the process-wide seed used by the relational engine's tuple
// hashing. All relations hashed within one process share it so that hashes
// are comparable across relations; it varies between processes, which keeps
// bucket layouts unpredictable.
var Seed = maphash.MakeSeed()

// HashFoldInit is the accumulator a tuple-hash fold starts from; fold one
// value hash per column with HashFold.
const HashFoldInit = 0xCBF29CE484222325

// hashFoldPrime spreads each folded value hash across the word (odd, so the
// multiply is a bijection); the high bits feed PartitionOf's range
// reduction.
const hashFoldPrime = 0x9E3779B97F4A7C15

// stringKindMark separates the string hash family from the scalar families
// (a kind tag, folded in after the content hash).
const stringKindMark = 0xA24BAED4963EE407

// HashFold folds the next column's value hash vh into the row accumulator h.
// The fold is order-dependent — ("ab","c") and ("a","bc") fold differently —
// which preserves tuple-framing injectivity without length prefixes.
func HashFold(h, vh uint64) uint64 { return (h ^ vh) * hashFoldPrime }

// scalarHash64 hashes a kind tag plus a fixed 8-byte payload in one shot.
func scalarHash64(seed maphash.Seed, k Kind, payload uint64) uint64 {
	var buf [9]byte
	buf[0] = byte(k)
	binary.LittleEndian.PutUint64(buf[1:], payload)
	return maphash.Bytes(seed, buf[:])
}

// floatHashBits normalizes a float payload to its hashed bit pattern: +0
// and -0 are one datum, and every NaN is one datum (see Value.Identical).
func floatHashBits(f float64) uint64 {
	if f != f {
		return nanBits
	}
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// Hash64 returns a 64-bit hash of the value under seed. Identical values
// hash identically; distinct values collide only with ordinary hash
// probability, and callers must confirm bucket candidates with Identical.
func (v Value) Hash64(seed maphash.Seed) uint64 {
	switch v.kind {
	case KindString:
		return maphash.String(seed, v.str) ^ stringKindMark
	case KindInt:
		return scalarHash64(seed, KindInt, uint64(v.num))
	case KindFloat:
		return scalarHash64(seed, KindFloat, floatHashBits(v.fnum))
	case KindBool:
		b := uint64(0)
		if v.b {
			b = 1
		}
		return scalarHash64(seed, KindBool, b)
	default:
		return scalarHash64(seed, v.kind, 0)
	}
}

// Hash64 returns a 64-bit hash of the tuple under seed, usable as the bucket
// key for hashing-based duplicate elimination and joins. Tuples with
// Identical values hash identically. The result is the HashFold of the
// per-value hashes in column order.
func (t Tuple) Hash64(seed maphash.Seed) uint64 {
	h := uint64(HashFoldInit)
	for _, v := range t {
		h = HashFold(h, v.Hash64(seed))
	}
	return h
}

// BucketIndex buckets positions (into some caller-owned slice) by 64-bit
// hash, with candidate confirmation delegated to the caller — the shared
// core of the engines' hash-based dedup tables: a hash collision degrades to
// an extra comparison, never to a wrong answer. Both the polygen algebra
// (package core, over tuple data portions) and the plain streams' dedup
// (DedupCursor and ProjectCursor, over plain tuples) build on it.
//
// The implementation is a flat open-addressing table: an append-only entry
// log (hash, pos) plus a power-of-two slot array of 1-based entry indexes,
// probed linearly. Compared to the previous map[uint64][]int it allocates
// O(1) slices total instead of one per distinct hash, which is what makes
// large dedups allocation-cheap. Entries that share a full 64-bit hash are
// visited in insertion order (a later insert always probes past the earlier
// ones; rehashing re-places entries in log order).
//
// A BucketIndex is a handle: copies share the same table, so it can be
// passed by value. There is no deletion.
type BucketIndex struct {
	s *bucketStore
}

type bucketStore struct {
	slots  []int32 // 1-based entry index; 0 = empty; len is a power of two
	mask   uint64
	hashes []uint64
	poss   []int32
}

// NewBucketIndex returns an index sized for about capacity entries.
func NewBucketIndex(capacity int) BucketIndex {
	n := 16
	for n-n/4 < capacity {
		n <<= 1
	}
	s := &bucketStore{slots: make([]int32, n), mask: uint64(n - 1)}
	if capacity > 0 {
		s.hashes = make([]uint64, 0, capacity)
		s.poss = make([]int32, 0, capacity)
	}
	return BucketIndex{s: s}
}

// Len returns the number of entries added.
func (ix BucketIndex) Len() int { return len(ix.s.hashes) }

func (s *bucketStore) place(h uint64, id int32) {
	i := h & s.mask
	for s.slots[i] != 0 {
		i = (i + 1) & s.mask
	}
	s.slots[i] = id
}

func (s *bucketStore) grow() {
	n := len(s.slots) << 1
	s.slots = make([]int32, n)
	s.mask = uint64(n - 1)
	for e, h := range s.hashes {
		s.place(h, int32(e+1))
	}
}

// Add buckets pos under h.
func (ix BucketIndex) Add(h uint64, pos int) {
	s := ix.s
	if len(s.hashes)+1 > len(s.slots)-len(s.slots)/4 {
		s.grow()
	}
	s.hashes = append(s.hashes, h)
	s.poss = append(s.poss, int32(pos))
	s.place(h, int32(len(s.hashes)))
}

// Find returns the first bucketed position under h for which same reports a
// true match.
func (ix BucketIndex) Find(h uint64, same func(pos int) bool) (int, bool) {
	s := ix.s
	for i := h & s.mask; s.slots[i] != 0; i = (i + 1) & s.mask {
		e := s.slots[i] - 1
		if s.hashes[e] == h && same(int(s.poss[e])) {
			return int(s.poss[e]), true
		}
	}
	return 0, false
}

// ForEach visits every position bucketed under h in insertion order
// (collision candidates included — the caller confirms each), stopping early
// if fn returns false. This is the allocation-free form of Bucket for hot
// probe loops.
func (ix BucketIndex) ForEach(h uint64, fn func(pos int) bool) {
	s := ix.s
	for i := h & s.mask; s.slots[i] != 0; i = (i + 1) & s.mask {
		e := s.slots[i] - 1
		if s.hashes[e] == h && !fn(int(s.poss[e])) {
			return
		}
	}
}

// PartitionOf maps a 64-bit hash to one of parts radix partitions using a
// multiply-shift range reduction over the hash's high 32 bits, so the hash
// space splits into parts contiguous disjoint ranges for any partition
// count — powers of two are not required. Equal hashes always land in the
// same partition, which is what lets the federation layer route a key to
// one shard: every tuple that could collide, deduplicate or join with
// another shares its shard.
func PartitionOf(h uint64, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int(((h >> 32) * uint64(parts)) >> 32)
}
