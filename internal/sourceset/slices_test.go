package sourceset

import "sort"

// SliceSet is the straightforward sorted-slice set: the oracle that
// TestSetMatchesSliceSet holds the bitmask Set to.
type SliceSet []ID

// SliceOf builds a SliceSet from ids.
func SliceOf(ids ...ID) SliceSet {
	out := append(SliceSet(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Deduplicate in place.
	w := 0
	for i, id := range out {
		if i > 0 && id == out[w-1] {
			continue
		}
		out[w] = id
		w++
	}
	return out[:w]
}

// Union returns the set union of a and b as a new SliceSet.
func (a SliceSet) Union(b SliceSet) SliceSet {
	out := make(SliceSet, 0, len(a)+len(b))
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

// Contains reports membership via binary search.
func (a SliceSet) Contains(id ID) bool {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= id })
	return i < len(a) && a[i] == id
}

// Equal reports element-wise equality.
func (a SliceSet) Equal(b SliceSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
