package core

import (
	"fmt"
	"strings"

	"repro/internal/domainmap"
)

// LocalAttr identifies one attribute of one relation of one local database —
// the (LD, LS, LA) triplets of the paper's attribute mapping relationships.
type LocalAttr struct {
	// DB is the local database name (LD), e.g. "AD".
	DB string
	// Scheme is the local scheme name (LS), e.g. "BUSINESS".
	Scheme string
	// Attr is the local attribute name (LA), e.g. "BNAME".
	Attr string
}

// String renders the triplet as "(AD, BUSINESS, BNAME)".
func (l LocalAttr) String() string {
	return fmt.Sprintf("(%s, %s, %s)", l.DB, l.Scheme, l.Attr)
}

// PolygenAttr is one attribute of a polygen scheme together with its mapping
// set MA = {(LD, LS, LA), ...}.
type PolygenAttr struct {
	// Name is the polygen attribute name (PA), e.g. "ONAME".
	Name string
	// Mapping is MA: the local attributes this polygen attribute draws
	// values from.
	Mapping []LocalAttr
}

// Scheme is a polygen scheme P = ((PA1, MA1), ..., (PAn, MAn)).
type Scheme struct {
	// Name is the polygen scheme name, e.g. "PORGANIZATION".
	Name string
	// Attrs lists the polygen attributes in order.
	Attrs []PolygenAttr
	// Key is the primary key polygen attribute (the underlined attribute of
	// the paper's schemes); the Outer Natural Primary Join joins on it.
	Key string
}

// Attr returns the named polygen attribute.
func (s *Scheme) Attr(name string) (PolygenAttr, bool) {
	for _, a := range s.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return PolygenAttr{}, false
}

// AttrNames returns the polygen attribute names in order.
func (s *Scheme) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// LocalSchemes returns the distinct (DB, Scheme) pairs the scheme draws from,
// in first-appearance order over the key attribute then the rest. For
// PORGANIZATION this is [(AD, BUSINESS), (PD, CORPORATION), (CD, FIRM)] —
// the retrieval fan-out of the POI's multi-source case (Figure 3).
func (s *Scheme) LocalSchemes() []LocalRelation {
	var out []LocalRelation
	seen := make(map[LocalRelation]bool)
	add := func(la LocalAttr) {
		lr := LocalRelation{DB: la.DB, Scheme: la.Scheme}
		if !seen[lr] {
			seen[lr] = true
			out = append(out, lr)
		}
	}
	// Key attribute first: every local relation participating in the scheme
	// must map the key (it is the join attribute of the Merge).
	if key, ok := s.Attr(s.Key); ok {
		for _, la := range key.Mapping {
			add(la)
		}
	}
	for _, a := range s.Attrs {
		for _, la := range a.Mapping {
			add(la)
		}
	}
	return out
}

// LocalRelation identifies one local relation (LD, LS).
type LocalRelation struct {
	DB     string
	Scheme string
}

// String renders as "AD.BUSINESS".
func (l LocalRelation) String() string { return l.DB + "." + l.Scheme }

// LocalAttrsOf returns, for the given local relation, the pairs
// (local attribute name, polygen attribute name) that the scheme maps.
func (s *Scheme) LocalAttrsOf(lr LocalRelation) []AttrPair {
	var out []AttrPair
	for _, a := range s.Attrs {
		for _, la := range a.Mapping {
			if la.DB == lr.DB && la.Scheme == lr.Scheme {
				out = append(out, AttrPair{Local: la.Attr, Polygen: a.Name})
			}
		}
	}
	return out
}

// AttrPair relates a local attribute name to its polygen attribute name.
type AttrPair struct {
	Local   string
	Polygen string
}

// String renders the scheme in the paper's notation.
func (s *Scheme) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		ms := make([]string, len(a.Mapping))
		for j, la := range a.Mapping {
			ms[j] = la.String()
		}
		parts[i] = fmt.Sprintf("(%s, {%s})", a.Name, strings.Join(ms, ", "))
	}
	return fmt.Sprintf("%s = (%s)", s.Name, strings.Join(parts, ", "))
}

// Schema is a polygen schema: a set of polygen schemes plus the attribute
// mapping metadata the Polygen Operation Interpreter consumes — including
// the reverse mapping PA(LS, LA) used by pass two (Figure 4, footnote 12)
// and the domain mapping table the paper assumes is "available to the PQP".
type Schema struct {
	schemes map[string]*Scheme
	order   []string
	// reverse maps a local attribute to the polygen attributes it feeds.
	reverse map[LocalAttr][]SchemeAttr
	// DomainMap holds per-local-attribute value conversions applied at
	// Retrieve time (see package domainmap).
	DomainMap *domainmap.Table
}

// SchemeAttr names one polygen attribute within one scheme.
type SchemeAttr struct {
	Scheme string
	Attr   string
}

// NewSchema builds a schema from schemes. Scheme keys default to the first
// attribute. It fails on duplicate scheme names, empty schemes, unknown key
// attributes, attributes with empty mapping sets, or an attribute mapping
// two attributes of one local relation (a Retrieve of that relation would
// carry the polygen attribute twice, which Merge cannot coalesce).
func NewSchema(schemes ...*Scheme) (*Schema, error) {
	s := &Schema{
		schemes:   make(map[string]*Scheme, len(schemes)),
		reverse:   make(map[LocalAttr][]SchemeAttr),
		DomainMap: domainmap.NewTable(),
	}
	for _, p := range schemes {
		if len(p.Attrs) == 0 {
			return nil, fmt.Errorf("core: polygen scheme %q has no attributes", p.Name)
		}
		if _, dup := s.schemes[p.Name]; dup {
			return nil, fmt.Errorf("core: duplicate polygen scheme %q", p.Name)
		}
		if p.Key == "" {
			p.Key = p.Attrs[0].Name
		}
		if _, ok := p.Attr(p.Key); !ok {
			return nil, fmt.Errorf("core: scheme %q key %q is not one of its attributes", p.Name, p.Key)
		}
		seen := make(map[string]bool)
		for _, a := range p.Attrs {
			if seen[a.Name] {
				return nil, fmt.Errorf("core: scheme %q has duplicate attribute %q", p.Name, a.Name)
			}
			seen[a.Name] = true
			if len(a.Mapping) == 0 {
				return nil, fmt.Errorf("core: scheme %q attribute %q has an empty mapping set", p.Name, a.Name)
			}
			for i, la := range a.Mapping {
				for _, prev := range a.Mapping[:i] {
					if prev.DB == la.DB && prev.Scheme == la.Scheme {
						return nil, fmt.Errorf("core: scheme %q attribute %q maps two attributes (%s, %s) of local relation %s.%s",
							p.Name, a.Name, prev.Attr, la.Attr, la.DB, la.Scheme)
					}
				}
				s.reverse[la] = append(s.reverse[la], SchemeAttr{Scheme: p.Name, Attr: a.Name})
			}
		}
		s.schemes[p.Name] = p
		s.order = append(s.order, p.Name)
	}
	return s, nil
}

// MustSchema is NewSchema for statically-known schemas; it panics on error.
func MustSchema(schemes ...*Scheme) *Schema {
	s, err := NewSchema(schemes...)
	if err != nil {
		panic(err)
	}
	return s
}

// Scheme returns the named polygen scheme.
func (s *Schema) Scheme(name string) (*Scheme, bool) {
	p, ok := s.schemes[name]
	return p, ok
}

// SchemeNames returns the scheme names in declaration order.
func (s *Schema) SchemeNames() []string { return append([]string(nil), s.order...) }

// PolygenAttrOf implements the PA(local scheme, local attribute) function of
// the pass-two algorithm: given a local attribute it returns the polygen
// attribute name it maps to. When the local attribute feeds several polygen
// attributes the first (declaration order) wins; the worked example's schema
// has no such sharing.
func (s *Schema) PolygenAttrOf(la LocalAttr) (SchemeAttr, bool) {
	if sas, ok := s.reverse[la]; ok && len(sas) > 0 {
		return sas[0], true
	}
	return SchemeAttr{}, false
}

// LocalColumns enumerates the column names of db's local scheme that the
// polygen schema knows about, in scheme-declaration order, duplicates
// removed. The federation's graceful-degradation path uses it to shape the
// empty stand-in relation of a source whose replicas are all exhausted —
// when the source cannot be asked for its schema, the polygen mappings are
// the authority on what its columns would have been.
func (s *Schema) LocalColumns(db, localScheme string) ([]string, bool) {
	var cols []string
	seen := make(map[string]bool)
	for _, name := range s.order {
		for _, a := range s.schemes[name].Attrs {
			for _, la := range a.Mapping {
				if la.DB == db && la.Scheme == localScheme && !seen[la.Attr] {
					seen[la.Attr] = true
					cols = append(cols, la.Attr)
				}
			}
		}
	}
	return cols, len(cols) > 0
}

// ResolveAttr finds which scheme-attribute a (scheme, polygen attr name)
// reference denotes, confirming the attribute exists.
func (s *Schema) ResolveAttr(scheme, attr string) (PolygenAttr, error) {
	p, ok := s.schemes[scheme]
	if !ok {
		return PolygenAttr{}, fmt.Errorf("core: no polygen scheme %q", scheme)
	}
	a, ok := p.Attr(attr)
	if !ok {
		return PolygenAttr{}, fmt.Errorf("core: scheme %q has no attribute %q", scheme, attr)
	}
	return a, nil
}
