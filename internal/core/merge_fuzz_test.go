package core

import (
	"math"
	"testing"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzValues is the datum domain of the Merge fuzz: nulls, NaN, both zeros,
// case-folding collisions and mixed kinds.
var fuzzValues = []rel.Value{
	rel.Null(), rel.Float(math.NaN()), rel.Float(math.Copysign(0, -1)), rel.Float(0),
	rel.Int(1), rel.String("a"), rel.String("A"), rel.String("b"), rel.Bool(true),
}

// fuzzMergeOperands decodes 1–6 Merge operands of mergeScheme: each a key
// plus 0–3 of A/B/C (under polygen or local names), up to 7 rows of cells
// drawn from fuzzValues with tags from IDs 0–100.
func fuzzMergeOperands(reg *sourceset.Registry, data []byte) []*Relation {
	b := fuzzBytes(data)
	set := func() sourceset.Set {
		var s sourceset.Set
		for n := b.next() % 3; n > 0; n-- {
			s = s.With(sourceset.ID(b.next() % 101))
		}
		return s
	}
	rels := make([]*Relation, 1+b.next()%6)
	for k := range rels {
		shape := b.next()
		names := []string{"K/K"}
		for i, pa := range []string{"A", "B", "C"} {
			if shape&(1<<i) != 0 {
				names = append(names, pa+"/"+pa)
			}
		}
		if shape&8 != 0 {
			names[0], names[len(names)-1] = "L"+names[len(names)-1], names[0]
		}
		p := NewRelation("F", reg, attrs(names...)...)
		for n := b.next() % 8; n > 0; n-- {
			row := make(Tuple, len(names))
			for c := range row {
				row[c] = Cell{D: fuzzValues[b.next()%len(fuzzValues)], O: set(), I: set()}
			}
			p.Tuples = append(p.Tuples, row)
		}
		rels[k] = p
	}
	return rels
}

// FuzzMergeMatchesReference holds the keyed Merge to the reference fold on
// decoded operands under the resolver the first byte picks among the
// property resolvers: both fail, or both return the same attribute list and
// the same rows cell for cell.
func FuzzMergeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 7, 3, 5, 1, 2, 70, 0, 6, 1, 5, 2, 99, 1, 8, 0, 1, 1})
	f.Add([]byte{5, 1, 4, 0, 2, 1, 64, 1, 65, 6, 3, 100, 9, 2, 4, 5, 2, 1, 3, 7, 6, 1, 1, 1, 2, 2})
	f.Add([]byte{3, 15, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 2, 1, 1, 1, 1, 1, 1, 1, 1, 9, 3, 3, 3})
	f.Add([]byte{1, 5, 1, 4, 0, 2, 1, 64, 1, 65, 6, 3, 100, 9, 2, 4, 5, 2, 1, 3, 7, 6, 1, 1, 1, 2, 2})
	reg := sourceset.NewRegistry()
	for i := 0; i <= 100; i++ {
		reg.Intern(workloadDBName(i))
	}
	algs := make([]*Algebra, len(propertyResolvers))
	for i, res := range propertyResolvers {
		algs[i] = NewAlgebra(res)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		alg := algs[0]
		if len(data) > 0 {
			alg, data = algs[int(data[0])%len(algs)], data[1:]
		}
		rels := fuzzMergeOperands(reg, data)
		got, err := alg.Merge(mergeScheme, rels...)
		ref, rerr := alg.RefMerge(mergeScheme, rels...)
		if (err != nil) != (rerr != nil) {
			t.Fatalf("merge error %v, reference error %v", err, rerr)
		}
		if err != nil {
			return
		}
		wantSameAttrs(t, 0, got, ref)
		wantSameRendered(t, "fuzzed merge", 0, got, ref)
	})
}
