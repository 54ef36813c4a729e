// Package catalog implements the storage and metadata layer of a local
// database: a named collection of relations with declared primary keys. Each
// Local Query Processor serves exactly one catalog.Database (paper, Figure 1).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rel"
)

// Database is a named set of relations. It is safe for concurrent readers
// and writers; LQPs may serve queries while tools load data.
type Database struct {
	name string

	mu   sync.RWMutex
	rels map[string]*table
}

type table struct {
	rel *rel.Relation
	key []string // primary key attribute names; may be empty

	// keyIdx holds the schema positions of key (nil when no key is
	// declared) and index maps a hash of those cells to positions in
	// rel.Tuples, so a uniqueness check costs O(batch), not O(relation).
	keyIdx []int
	index  rel.BucketIndex
}

// keyHash folds the hashes of t's key cells.
func (t *table) keyHash(tup rel.Tuple) uint64 {
	h := uint64(rel.HashFoldInit)
	for _, ci := range t.keyIdx {
		h = rel.HashFold(h, tup[ci].Hash64(rel.Seed))
	}
	return h
}

// sameKey reports whether a and b agree on every key cell under
// Value.Identical: -0 = +0, all NaNs are one datum, null = null, and values
// of different kinds (Int(5), Float(5)) differ.
func (t *table) sameKey(a, b rel.Tuple) bool {
	for _, ci := range t.keyIdx {
		if !a[ci].Identical(b[ci]) {
			return false
		}
	}
	return true
}

// NewDatabase returns an empty database with the given name (e.g. "AD").
func NewDatabase(name string) *Database {
	return &Database{name: name, rels: make(map[string]*table)}
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// Create registers an empty relation with the given schema and primary key
// attributes. It fails if the name is taken or a key attribute is unknown.
// Rows enter only through Insert, which keeps the key index in step.
func (d *Database) Create(name string, schema *rel.Schema, key ...string) error {
	t := &table{rel: rel.NewRelation(name, schema), key: append([]string(nil), key...)}
	for _, k := range key {
		if !schema.Has(k) {
			return fmt.Errorf("catalog: key attribute %q not in schema %s of %q", k, schema, name)
		}
		t.keyIdx = append(t.keyIdx, schema.Index(k))
	}
	if t.keyIdx != nil {
		t.index = rel.NewBucketIndex(0)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.rels[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists in database %q", name, d.name)
	}
	d.rels[name] = t
	return nil
}

// MustCreate is Create for statically-known schemas; it panics on error.
func (d *Database) MustCreate(name string, schema *rel.Schema, key ...string) {
	if err := d.Create(name, schema, key...); err != nil {
		panic(err)
	}
}

// Key returns the primary key attribute names of the named relation.
func (d *Database) Key(name string) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.rels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: database %q has no relation %q", d.name, name)
	}
	return append([]string(nil), t.key...), nil
}

// Relations returns the relation names in sorted order.
func (d *Database) Relations() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RelationInfo summarizes one stored relation for the statistics surface:
// the federated optimizer's cardinality estimates and column-pruning
// rewrites both start from these numbers.
type RelationInfo struct {
	// Name is the relation name.
	Name string
	// Rows is the stored tuple count at collection time.
	Rows int
	// Columns lists the attribute names in schema order.
	Columns []string
	// Key lists the primary key attribute names (empty when undeclared).
	Key []string
}

// Stats returns a RelationInfo for every stored relation, sorted by name,
// under one lock acquisition. LQPs expose it through lqp.LQP's Stats;
// internal/stats collects it into the optimizer's catalog.
func (d *Database) Stats() []RelationInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]RelationInfo, 0, len(d.rels))
	for name, t := range d.rels {
		out = append(out, RelationInfo{
			Name:    name,
			Rows:    len(t.rel.Tuples),
			Columns: t.rel.Schema.Names(),
			Key:     append([]string(nil), t.key...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Insert appends tuples to the named relation, enforcing degree and — when a
// primary key is declared — key uniqueness against both the stored rows and
// the rest of the batch. The whole batch is validated before anything is
// appended, so a rejected batch changes nothing. Key checks probe the
// relation's key index: the cost is O(len(tuples)), independent of how many
// rows are stored. Key equality is Value.Identical on the key cells, the
// same identity Tuple.Key gives.
func (d *Database) Insert(name string, tuples ...rel.Tuple) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.rels[name]
	if !ok {
		return fmt.Errorf("catalog: database %q has no relation %q", d.name, name)
	}
	for _, tup := range tuples {
		if len(tup) != t.rel.Schema.Len() {
			return fmt.Errorf("catalog: tuple degree %d does not match %q%s", len(tup), name, t.rel.Schema)
		}
	}
	if t.keyIdx != nil {
		if t.duplicateKey(tuples) {
			return fmt.Errorf("catalog: duplicate primary key %v in %q.%q", t.key, d.name, name)
		}
	}
	base := len(t.rel.Tuples)
	t.rel.Tuples = append(t.rel.Tuples, tuples...)
	if t.keyIdx != nil {
		for i, tup := range tuples {
			t.index.Add(t.keyHash(tup), base+i)
		}
	}
	return nil
}

// duplicateKey reports whether a batch's keys repeat a stored key or each
// other. A one-row batch needs no within-batch table and allocates nothing.
func (t *table) duplicateKey(tuples []rel.Tuple) bool {
	var batch rel.BucketIndex
	if len(tuples) > 1 {
		batch = rel.NewBucketIndex(len(tuples))
	}
	for i, tup := range tuples {
		h := t.keyHash(tup)
		if _, dup := t.index.Find(h, func(pos int) bool { return t.sameKey(t.rel.Tuples[pos], tup) }); dup {
			return true
		}
		if len(tuples) > 1 {
			if _, dup := batch.Find(h, func(pos int) bool { return t.sameKey(tuples[pos], tup) }); dup {
				return true
			}
			batch.Add(h, i)
		}
	}
	return false
}

// Snapshot returns a deep copy of the named relation, isolating callers from
// subsequent inserts.
func (d *Database) Snapshot(name string) (*rel.Relation, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.rels[name]
	if !ok {
		return nil, fmt.Errorf("catalog: database %q has no relation %q", d.name, name)
	}
	return t.rel.Clone(), nil
}

// View returns the schema and current tuples of the named relation without
// copying. The slice is a point-in-time view: concurrent inserts do not
// grow it, and stored tuples are never mutated in place, so readers need no
// further locking — but they must treat the tuples as immutable. The
// streaming LQP path reads base relations through View so that a Retrieve
// costs no per-tuple allocation.
func (d *Database) View(name string) (*rel.Schema, []rel.Tuple, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.rels[name]
	if !ok {
		return nil, nil, fmt.Errorf("catalog: database %q has no relation %q", d.name, name)
	}
	tuples := t.rel.Tuples
	return t.rel.Schema, tuples[:len(tuples):len(tuples)], nil
}
