package core

import "repro/internal/rel"

// dataIndex is the hash-native replacement for the map[string]int dedup
// tables the algebra's primitives used to build: tuples are bucketed by the
// 64-bit hash of their data portion (Tuple.DataHash64) through the shared
// rel.BucketIndex, and candidates are confirmed with DataEqual. Positions
// index into a caller-owned tuple slice, which keeps the index itself free
// of tuple copies.
type dataIndex struct {
	rel.BucketIndex
}

func newDataIndex(capacity int) dataIndex {
	return dataIndex{rel.NewBucketIndex(capacity)}
}

// find returns the position of the tuple in tuples whose data portion equals
// t(d), bucketing by h and confirming candidates with DataEqual.
func (ix dataIndex) find(tuples []Tuple, t Tuple, h uint64) (int, bool) {
	return ix.Find(h, func(at int) bool { return tuples[at].DataEqual(t) })
}

// add records that tuples[pos] hashes to h.
func (ix dataIndex) add(h uint64, pos int) { ix.Add(h, pos) }

// dedupInsert inserts t into out under the algebra's set semantics: a tuple
// whose data portion is already present merges its tag sets into the
// existing tuple cell by cell (paper §II, Project/Union); a new data
// portion is appended as an arena row. It is the one dedup kernel of
// Project, Union and Intersect, and reports whether a row was appended.
func dedupInsert(out *Relation, ix dataIndex, t Tuple) bool {
	h := t.DataHash64()
	if at, dup := ix.find(out.Tuples, t, h); dup {
		existing := out.Tuples[at]
		for i := range existing {
			existing[i] = existing[i].MergeTags(t[i])
		}
		return false
	}
	row := out.NewRow(len(t))
	copy(row, t)
	ix.add(h, len(out.Tuples))
	out.Tuples = append(out.Tuples, row)
	return true
}
