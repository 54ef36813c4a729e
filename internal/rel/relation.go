package rel

import (
	"fmt"
	"strings"
)

// Attr is a named attribute (column) of a relation schema.
type Attr struct {
	// Name is the attribute name, unique within its schema.
	Name string
	// Kind is the declared kind of the attribute's domain. KindNull means
	// "unspecified" (any kind accepted); local databases in the paper carry
	// untyped textual data, so unspecified domains are common.
	Kind Kind
}

// Schema is an ordered list of attributes.
type Schema struct {
	attrs []Attr
	index map[string]int
}

// MakeSchema builds a schema from the given attributes, failing if two
// share a name. Schemas read from outside input — a peer's stream header, a
// log record, a snapshot, a CSV header — are built with it.
func MakeSchema(attrs ...Attr) (*Schema, error) {
	s := &Schema{attrs: append([]Attr(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("rel: duplicate attribute %q in schema", a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// NewSchema is MakeSchema for schemas written in the program: it panics on
// a repeated name, which there is a programming error.
func NewSchema(attrs ...Attr) *Schema {
	s, err := MakeSchema(attrs...)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// SchemaOf builds a schema of unspecified kinds from attribute names.
func SchemaOf(names ...string) *Schema {
	attrs := make([]Attr, len(names))
	for i, n := range names {
		attrs[i] = Attr{Name: n}
	}
	return NewSchema(attrs...)
}

// Len returns the number of attributes (the degree of relations over this
// schema).
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attr { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attr { return append([]Attr(nil), s.attrs...) }

// Names returns the attribute names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Index returns the position of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Equal reports whether two schemas have the same attributes, in order.
func (s *Schema) Equal(t *Schema) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != t.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(A, B, C)".
func (s *Schema) String() string {
	return "(" + strings.Join(s.Names(), ", ") + ")"
}

// Tuple is an ordered list of values conforming positionally to a schema.
type Tuple []Value

// Key returns a hashable key identical for tuples with Equal values.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(v.Key())
		b.WriteByte('\x01')
	}
	return b.String()
}

// Equal reports value-wise equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Identical reports value-wise identity of two tuples (Value.Identical: like
// Equal, but all NaNs are one datum, matching Key). It is the
// collision-verification fallback for Hash64 buckets.
func (t Tuple) Identical(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Identical(u[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Relation is a named, schema-ful multiset of tuples. A local Project
// (package lqp) eliminates duplicates per the classical model; the storage
// layer does not forbid them, so intermediate results can be built
// incrementally.
type Relation struct {
	// Name is the relation name, e.g. "ALUMNUS". Derived relations may have
	// an empty name.
	Name string
	// Schema describes the columns.
	Schema *Schema
	// Tuples holds the rows.
	Tuples []Tuple
}

// NewRelation builds an empty relation over the given schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Append adds a tuple, checking its degree against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("rel: tuple degree %d does not match schema %s of %q", len(t), r.Schema, r.Name)
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend adds a tuple and panics on degree mismatch. It is intended for
// statically-known literal data such as the embedded paper dataset.
func (r *Relation) MustAppend(vals ...Value) {
	if err := r.Append(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Cardinality returns the number of stored tuples (including duplicates).
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Degree returns the number of attributes.
func (r *Relation) Degree() int { return r.Schema.Len() }

// Clone returns a deep copy of the relation (tuples are copied; values are
// immutable and shared).
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// Col returns the index of the named attribute or an error naming the
// relation, for use by operators that must report resolution failures.
func (r *Relation) Col(name string) (int, error) {
	if i := r.Schema.Index(name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("rel: relation %q has no attribute %q (schema %s)", r.Name, name, r.Schema)
}

// String renders a compact textual form of the relation, one tuple per line.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d tuples]\n", r.Name, r.Schema, len(r.Tuples))
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.String()
		}
		b.WriteString("  " + strings.Join(parts, " | ") + "\n")
	}
	return b.String()
}
