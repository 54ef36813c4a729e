package core

import (
	"strings"
	"testing"
)

func TestNewSchemaValidation(t *testing.T) {
	la := LocalAttr{DB: "AD", Scheme: "T", Attr: "A"}
	ok := &Scheme{Name: "P", Attrs: []PolygenAttr{{Name: "A", Mapping: []LocalAttr{la}}}}
	s, err := NewSchema(ok)
	if err != nil {
		t.Fatal(err)
	}
	if got, found := s.Scheme("P"); !found || got != ok {
		t.Error("Scheme lookup failed")
	}
	if ok.Key != "A" {
		t.Errorf("key should default to the first attribute, got %q", ok.Key)
	}

	cases := []*Scheme{
		{Name: "E"}, // no attributes
		{Name: "D", Attrs: []PolygenAttr{ // duplicate attribute
			{Name: "A", Mapping: []LocalAttr{la}},
			{Name: "A", Mapping: []LocalAttr{la}},
		}},
		{Name: "M", Attrs: []PolygenAttr{{Name: "A"}}}, // empty mapping
		{Name: "K", Key: "Z", Attrs: []PolygenAttr{{Name: "A", // unknown key
			Mapping: []LocalAttr{la}}}},
	}
	for _, bad := range cases {
		if _, err := NewSchema(bad); err == nil {
			t.Errorf("scheme %q should be rejected", bad.Name)
		}
	}
	if _, err := NewSchema(ok, &Scheme{Name: "P", Attrs: ok.Attrs}); err == nil {
		t.Error("duplicate scheme name accepted")
	}
	twice := &Scheme{Name: "W", Attrs: []PolygenAttr{{Name: "A", Mapping: []LocalAttr{
		la, {DB: "PD", Scheme: "T", Attr: "A"}, {DB: "AD", Scheme: "T", Attr: "B"},
	}}}}
	_, err = NewSchema(twice)
	if err == nil || !strings.Contains(err.Error(), `scheme "W" attribute "A" maps two attributes (A, B) of local relation AD.T`) {
		t.Errorf("one local relation mapped twice into one attribute: err = %v", err)
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic on invalid input")
		}
	}()
	MustSchema(&Scheme{Name: "E"})
}

func TestSchemaSchemeNames(t *testing.T) {
	la := LocalAttr{DB: "AD", Scheme: "T", Attr: "A"}
	s := MustSchema(
		&Scheme{Name: "B", Attrs: []PolygenAttr{{Name: "A", Mapping: []LocalAttr{la}}}},
		&Scheme{Name: "A", Attrs: []PolygenAttr{{Name: "A", Mapping: []LocalAttr{la}}}},
	)
	names := s.SchemeNames()
	if len(names) != 2 || names[0] != "B" || names[1] != "A" {
		t.Errorf("SchemeNames = %v (declaration order expected)", names)
	}
}

func TestPolygenAttrOf(t *testing.T) {
	s := MustSchema(orgScheme())
	sa, ok := s.PolygenAttrOf(LocalAttr{DB: "PD", Scheme: "CORPORATION", Attr: "STATE"})
	if !ok || sa.Scheme != "PORG" || sa.Attr != "HEADQUARTERS" {
		t.Errorf("PolygenAttrOf = %v, %v", sa, ok)
	}
	if _, ok := s.PolygenAttrOf(LocalAttr{DB: "XX", Scheme: "Y", Attr: "Z"}); ok {
		t.Error("unknown local attribute resolved")
	}
}

func TestResolveAttr(t *testing.T) {
	s := MustSchema(orgScheme())
	pa, err := s.ResolveAttr("PORG", "CEO")
	if err != nil || pa.Name != "CEO" || len(pa.Mapping) != 1 {
		t.Errorf("ResolveAttr = %v, %v", pa, err)
	}
	if _, err := s.ResolveAttr("NOPE", "CEO"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := s.ResolveAttr("PORG", "NOPE"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestSchemeString(t *testing.T) {
	s := orgScheme()
	str := s.String()
	if !strings.Contains(str, "PORG") || !strings.Contains(str, "(AD, BUSINESS, BNAME)") {
		t.Errorf("String = %q", str)
	}
	la := LocalAttr{DB: "CD", Scheme: "FIRM", Attr: "CEO"}
	if la.String() != "(CD, FIRM, CEO)" {
		t.Errorf("LocalAttr.String = %q", la.String())
	}
	lr := LocalRelation{DB: "AD", Scheme: "BUSINESS"}
	if lr.String() != "AD.BUSINESS" {
		t.Errorf("LocalRelation.String = %q", lr.String())
	}
}

func TestSchemeAttrNames(t *testing.T) {
	s := orgScheme()
	names := s.AttrNames()
	want := []string{"ONAME", "INDUSTRY", "CEO", "HEADQUARTERS"}
	if len(names) != len(want) {
		t.Fatalf("AttrNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("AttrNames = %v", names)
		}
	}
}
