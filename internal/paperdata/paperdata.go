// Package paperdata embeds the worked example of the paper (§II and §IV):
// the three local databases — the Alumni Database (AD), the Placement
// Database (PD) and the Company Database (CD) — and the six-scheme polygen
// schema with its attribute mapping relationships. All relation contents are
// the paper's, as printed in §IV. Where the paper's tables disagree with
// these relations, EXPERIMENTS.md § Paper fidelity says which one the
// reproduction follows.
package paperdata

import (
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/domainmap"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Database names as tagged in the paper's tables.
const (
	AD = "AD" // Alumni Database
	PD = "PD" // Placement Database
	CD = "CD" // Company Database
)

// Federation bundles the paper's three local databases, the polygen schema
// and a shared source registry, ready to be served by LQPs and queried by a
// PQP.
type Federation struct {
	// Registry interns AD, PD, CD (in that order, so rendered tag sets list
	// sources in the paper's order).
	Registry *sourceset.Registry
	// AD, PD, CD are the local databases.
	AD, PD, CD *catalog.Database
	// Schema is the polygen schema of §II, including the FIRM.HQ →
	// HEADQUARTERS domain mapping.
	Schema *core.Schema
}

// New builds the federation with all of the paper's data loaded.
func New() *Federation {
	f := &Federation{
		Registry: sourceset.NewRegistry(),
		AD:       catalog.NewDatabase(AD),
		PD:       catalog.NewDatabase(PD),
		CD:       catalog.NewDatabase(CD),
	}
	f.Registry.Intern(AD)
	f.Registry.Intern(PD)
	f.Registry.Intern(CD)
	f.loadAD()
	f.loadPD()
	f.loadCD()
	f.Schema = Schema()
	return f
}

// LQPs returns in-process Local Query Processors for the three databases,
// keyed by database name.
func (f *Federation) LQPs() map[string]lqp.LQP {
	return map[string]lqp.LQP{
		AD: lqp.NewLocal(f.AD),
		PD: lqp.NewLocal(f.PD),
		CD: lqp.NewLocal(f.CD),
	}
}

// Databases returns the three catalogs in AD, PD, CD order.
func (f *Federation) Databases() []*catalog.Database {
	return []*catalog.Database{f.AD, f.PD, f.CD}
}

func s(v string) rel.Value   { return rel.String(v) }
func fl(v float64) rel.Value { return rel.Float(v) }
func in(v int64) rel.Value   { return rel.Int(v) }

func (f *Federation) loadAD() {
	f.AD.MustCreate("ALUMNUS", rel.SchemaOf("AID#", "ANAME", "DEG", "MAJ"), "AID#")
	mustInsert(f.AD, "ALUMNUS",
		row(s("012"), s("John McCauley"), s("MBA"), s("IS")),
		row(s("123"), s("Bob Swanson"), s("MBA"), s("MGT")),
		row(s("234"), s("Stu Madnick"), s("MBA"), s("IS")),
		row(s("345"), s("James Yao"), s("BS"), s("EECS")),
		row(s("456"), s("Dave Horton"), s("MBA"), s("IS")),
		row(s("567"), s("John Reed"), s("MBA"), s("MGT")),
		row(s("678"), s("Bob Horton"), s("SF"), s("MGT")),
		row(s("789"), s("Ken Olsen"), s("MS"), s("EE")),
	)

	f.AD.MustCreate("CAREER", rel.SchemaOf("AID#", "BNAME", "POS"), "AID#", "BNAME")
	mustInsert(f.AD, "CAREER",
		row(s("012"), s("Citicorp"), s("MIS Director")),
		row(s("123"), s("Genentech"), s("CEO")),
		row(s("234"), s("Langley Castle"), s("CEO")),
		row(s("345"), s("Oracle"), s("Manager")),
		row(s("456"), s("Ford"), s("Manager")),
		row(s("567"), s("Citicorp"), s("CEO")),
		row(s("678"), s("BP"), s("CEO")),
		row(s("789"), s("DEC"), s("CEO")),
		row(s("234"), s("MIT"), s("Professor")),
	)

	f.AD.MustCreate("BUSINESS", rel.SchemaOf("BNAME", "IND"), "BNAME")
	mustInsert(f.AD, "BUSINESS",
		row(s("Langley Castle"), s("Hotel")),
		row(s("IBM"), s("High Tech")),
		row(s("MIT"), s("Education")),
		row(s("CitiCorp"), s("Banking")),
		row(s("Oracle"), s("High Tech")),
		row(s("Ford"), s("Automobile")),
		row(s("DEC"), s("High Tech")),
		row(s("BP"), s("Energy")),
		row(s("Genentech"), s("High Tech")),
	)
}

func (f *Federation) loadPD() {
	f.PD.MustCreate("STUDENT", rel.SchemaOf("SID#", "SNAME", "GPA", "MAJOR"), "SID#")
	mustInsert(f.PD, "STUDENT",
		row(s("01"), s("Forea Wang"), fl(3.5), s("Math")),
		row(s("12"), s("Yeuk Yuan"), fl(3.99), s("EECS")),
		row(s("23"), s("Rich Bolsky"), fl(3.2), s("Finance")),
		row(s("34"), s("John Smith"), fl(3.6), s("Finance")),
		row(s("45"), s("Mike Lavine"), fl(3.7), s("IS")),
	)

	f.PD.MustCreate("INTERVIEW", rel.SchemaOf("SID#", "CNAME", "JOB", "LOC"), "SID#", "CNAME")
	mustInsert(f.PD, "INTERVIEW",
		row(s("01"), s("IBM"), s("System Analyst"), s("NY")),
		row(s("12"), s("Oracle"), s("Product Manager"), s("CA")),
		row(s("23"), s("Banker's Trust"), s("CFO"), s("NY")),
		row(s("34"), s("Citicorp"), s("Far East Manager"), s("NY")),
	)

	f.PD.MustCreate("CORPORATION", rel.SchemaOf("CNAME", "TRADE", "STATE"), "CNAME")
	mustInsert(f.PD, "CORPORATION",
		row(s("Apple"), s("High Tech"), s("CA")),
		row(s("Oracle"), s("High Tech"), s("CA")),
		row(s("AT&T"), s("High Tech"), s("NY")),
		row(s("IBM"), s("High Tech"), s("NY")),
		row(s("Citicorp"), s("Banking"), s("NY")),
		row(s("DEC"), s("High Tech"), s("MA")),
		row(s("Banker's Trust"), s("Finance"), s("NY")),
	)
}

func (f *Federation) loadCD() {
	f.CD.MustCreate("FIRM", rel.SchemaOf("FNAME", "CEO", "HQ"), "FNAME")
	mustInsert(f.CD, "FIRM",
		row(s("AT&T"), s("Robert Allen"), s("NY, NY")),
		row(s("Langley Castle"), s("Stu Madnick"), s("Cambridge, MA")),
		row(s("Banker's Trust"), s("Charles Sanford"), s("NY, NY")),
		row(s("CitiCorp"), s("John Reed"), s("NY, NY")),
		row(s("Ford"), s("Donald Peterson"), s("Dearborn, MI")),
		row(s("IBM"), s("John Ackers"), s("Armonk, NY")),
		row(s("Apple"), s("John Sculley"), s("Cupertino, CA")),
		row(s("Oracle"), s("Lawrence Ellison"), s("Belmont, CA")),
		row(s("DEC"), s("Ken Olsen"), s("Maynard, MA")),
		row(s("Genentech"), s("Bob Swanson"), s("So. San Francisco, CA")),
	)

	f.CD.MustCreate("FINANCE", rel.SchemaOf("FNAME", "YR", "PROFIT"), "FNAME", "YR")
	mustInsert(f.CD, "FINANCE",
		row(s("AT&T"), in(1989), s("-1.7 bil")),
		row(s("Langley Castle"), in(1989), s("1 mil")),
		row(s("Banker's Trust"), in(1989), s("648 mil")),
		row(s("CitiCorp"), in(1989), s("1.7 bil")),
		row(s("Ford"), in(1989), s("5.3 bil")),
		row(s("IBM"), in(1989), s("5.5 bil")),
		row(s("Apple"), in(1989), s("400 mil")),
		row(s("Oracle"), in(1989), s("43 mil")),
		row(s("DEC"), in(1989), s("1.3 bil")),
		row(s("Genentech"), in(1989), s("21 mil")),
	)
}

func row(vals ...rel.Value) rel.Tuple { return rel.Tuple(vals) }

func mustInsert(db *catalog.Database, name string, tuples ...rel.Tuple) {
	if err := db.Insert(name, tuples...); err != nil {
		panic(err)
	}
}

// Schema returns the paper's polygen schema (§II) with attribute mapping
// relationships and the FIRM.HQ → HEADQUARTERS domain mapping.
func Schema() *core.Schema {
	la := func(db, scheme, attr string) core.LocalAttr {
		return core.LocalAttr{DB: db, Scheme: scheme, Attr: attr}
	}
	pa := func(name string, mapping ...core.LocalAttr) core.PolygenAttr {
		return core.PolygenAttr{Name: name, Mapping: mapping}
	}
	schema := core.MustSchema(
		&core.Scheme{Name: "PALUMNUS", Key: "AID#", Attrs: []core.PolygenAttr{
			pa("AID#", la(AD, "ALUMNUS", "AID#")),
			pa("ANAME", la(AD, "ALUMNUS", "ANAME")),
			pa("DEGREE", la(AD, "ALUMNUS", "DEG")),
			pa("MAJOR", la(AD, "ALUMNUS", "MAJ")),
		}},
		&core.Scheme{Name: "PCAREER", Key: "AID#", Attrs: []core.PolygenAttr{
			pa("AID#", la(AD, "CAREER", "AID#")),
			pa("ONAME", la(AD, "CAREER", "BNAME")),
			pa("POSITION", la(AD, "CAREER", "POS")),
		}},
		&core.Scheme{Name: "PORGANIZATION", Key: "ONAME", Attrs: []core.PolygenAttr{
			pa("ONAME", la(AD, "BUSINESS", "BNAME"), la(PD, "CORPORATION", "CNAME"), la(CD, "FIRM", "FNAME")),
			pa("INDUSTRY", la(AD, "BUSINESS", "IND"), la(PD, "CORPORATION", "TRADE")),
			pa("CEO", la(CD, "FIRM", "CEO")),
			pa("HEADQUARTERS", la(PD, "CORPORATION", "STATE"), la(CD, "FIRM", "HQ")),
		}},
		&core.Scheme{Name: "PSTUDENT", Key: "SID#", Attrs: []core.PolygenAttr{
			pa("SID#", la(PD, "STUDENT", "SID#")),
			pa("SNAME", la(PD, "STUDENT", "SNAME")),
			pa("GPA", la(PD, "STUDENT", "GPA")),
			pa("MAJOR", la(PD, "STUDENT", "MAJOR")),
		}},
		&core.Scheme{Name: "PINTERVIEW", Key: "SID#", Attrs: []core.PolygenAttr{
			pa("SID#", la(PD, "INTERVIEW", "SID#")),
			pa("ONAME", la(PD, "INTERVIEW", "CNAME")),
			pa("JOB", la(PD, "INTERVIEW", "JOB")),
			pa("LOCATION", la(PD, "INTERVIEW", "LOC")),
		}},
		&core.Scheme{Name: "PFINANCE", Key: "ONAME", Attrs: []core.PolygenAttr{
			pa("ONAME", la(CD, "FINANCE", "FNAME")),
			pa("YEAR", la(CD, "FINANCE", "YR")),
			pa("PROFIT", la(CD, "FINANCE", "PROFIT")),
		}},
	)
	// The Company Database stores headquarters as "city, state"; the polygen
	// HEADQUARTERS domain is the state (compare §IV's Firm relation with
	// Table A3).
	schema.DomainMap.Set(CD, "FIRM", "HQ", domainmap.LastCommaField)
	return schema
}
