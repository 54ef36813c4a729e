// Package workload generates synthetic federations for the test suites of
// the layers above the algebra (pqp, credibility, translate, vtab). The
// paper's motivation is "a federated database environment with hundreds of
// databases"; its worked example has three. This generator produces
// federations with a configurable number of local databases, each holding a
// horizontal fragment of one universal entity set, with configurable
// fragment overlap — the knob that drives Merge's coalescing work.
//
// Every local database D<i> holds one relation FRAG(KEY, CAT, V<i>): KEY
// identifies the entity (shared across databases), CAT is a low-cardinality
// category shared by all fragments (so Merge coalesces it), and V<i> is an
// attribute only D<i> supplies (so Merge renames it). Values are generated
// consistently across databases — the paper's assumptions hold and Coalesce
// always hits its equal-data case; SkewConflicts can be set to exercise the
// conflict path instead.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/lqp"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Config parameterizes a synthetic federation.
type Config struct {
	// Databases is the number of local databases (fan-in of the Merge).
	Databases int
	// Entities is the size of the universal entity set.
	Entities int
	// Overlap is the probability that a database beyond the first knows an
	// entity. 1.0 means every database holds every entity (maximal
	// coalescing); 0.0 means disjoint fragments after the first database.
	Overlap float64
	// Categories is the domain size of the shared CAT attribute (drives
	// selection selectivity: a CAT select keeps ~1/Categories of tuples).
	Categories int
	// ConflictRate, when positive, is the probability that a database
	// reports a *different* CAT value for an entity than the first
	// database — data conflicts for the credibility extension to resolve.
	ConflictRate float64
	// Seed fixes the generator; equal configs generate equal federations.
	Seed int64
}

// Federation is a generated synthetic federation, structurally parallel to
// paperdata.Federation.
type Federation struct {
	Config    Config
	Registry  *sourceset.Registry
	Databases []*catalog.Database
	// Schema holds the single polygen scheme PENTITY plus the mapping
	// metadata for the translator.
	Schema *core.Schema
	// Scheme is the PENTITY scheme (also reachable through Schema).
	Scheme *core.Scheme
}

// DBName returns the name of the i-th database ("D0", "D1", ...).
func DBName(i int) string { return fmt.Sprintf("D%d", i) }

// New generates a federation from cfg.
func New(cfg Config) *Federation {
	if cfg.Databases < 1 {
		panic("workload: need at least one database")
	}
	if cfg.Categories < 1 {
		cfg.Categories = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Federation{Config: cfg, Registry: sourceset.NewRegistry()}

	// Polygen scheme: KEY and CAT map to every database; V<i> maps to D<i>.
	keyAttr := core.PolygenAttr{Name: "KEY"}
	catAttr := core.PolygenAttr{Name: "CAT"}
	extra := make([]core.PolygenAttr, cfg.Databases)
	for i := 0; i < cfg.Databases; i++ {
		name := DBName(i)
		f.Registry.Intern(name)
		keyAttr.Mapping = append(keyAttr.Mapping, core.LocalAttr{DB: name, Scheme: "FRAG", Attr: "KEY"})
		catAttr.Mapping = append(catAttr.Mapping, core.LocalAttr{DB: name, Scheme: "FRAG", Attr: "CAT"})
		extra[i] = core.PolygenAttr{
			Name:    fmt.Sprintf("V%d", i),
			Mapping: []core.LocalAttr{{DB: name, Scheme: "FRAG", Attr: fmt.Sprintf("V%d", i)}},
		}
	}
	f.Scheme = &core.Scheme{
		Name:  "PENTITY",
		Key:   "KEY",
		Attrs: append([]core.PolygenAttr{keyAttr, catAttr}, extra...),
	}
	f.Schema = core.MustSchema(f.Scheme)

	// Populate fragments. The first database holds every entity so that the
	// merged relation always covers the universal set.
	for i := 0; i < cfg.Databases; i++ {
		db := catalog.NewDatabase(DBName(i))
		schema := rel.SchemaOf("KEY", "CAT", fmt.Sprintf("V%d", i))
		db.MustCreate("FRAG", schema, "KEY")
		f.Databases = append(f.Databases, db)
	}
	// Rows are accumulated per database and inserted in one batch each.
	rows := make([][]rel.Tuple, cfg.Databases)
	for e := 0; e < cfg.Entities; e++ {
		key := rel.String(fmt.Sprintf("E%06d", e))
		baseCat := rel.String(fmt.Sprintf("cat%d", rng.Intn(cfg.Categories)))
		for i := 0; i < cfg.Databases; i++ {
			if i > 0 && rng.Float64() >= cfg.Overlap {
				continue
			}
			cat := baseCat
			if i > 0 && cfg.ConflictRate > 0 && rng.Float64() < cfg.ConflictRate {
				cat = rel.String(fmt.Sprintf("cat%d-alt%d", rng.Intn(cfg.Categories), i))
			}
			val := rel.String(fmt.Sprintf("v%d-%06d", i, e))
			rows[i] = append(rows[i], rel.Tuple{key, cat, val})
		}
	}
	for i, batch := range rows {
		if err := f.Databases[i].Insert("FRAG", batch...); err != nil {
			panic(err)
		}
	}
	return f
}

// LQPs returns in-process LQPs keyed by database name.
func (f *Federation) LQPs() map[string]lqp.LQP {
	out := make(map[string]lqp.LQP, len(f.Databases))
	for _, db := range f.Databases {
		out[db.Name()] = lqp.NewLocal(db)
	}
	return out
}

// PlainFragments snapshots every database's FRAG relation — inputs for the
// untagged baseline benchmarks.
func (f *Federation) PlainFragments() []*rel.Relation {
	out := make([]*rel.Relation, len(f.Databases))
	for i, db := range f.Databases {
		r, err := db.Snapshot("FRAG")
		if err != nil {
			panic(err)
		}
		out[i] = r
	}
	return out
}

// TaggedFragments retrieves and tags every fragment the way the PQP would:
// origin = the owning database, empty intermediates, polygen annotations
// from the scheme.
func (f *Federation) TaggedFragments() []*core.Relation {
	plains := f.PlainFragments()
	out := make([]*core.Relation, len(plains))
	for i, plain := range plains {
		name := f.Databases[i].Name()
		src := f.Registry.Intern(name)
		p := core.FromPlain(plain, src, f.Registry)
		p.Name = "FRAG"
		for j := range p.Attrs {
			la := core.LocalAttr{DB: name, Scheme: "FRAG", Attr: p.Attrs[j].Name}
			if sa, ok := f.Schema.PolygenAttrOf(la); ok {
				p.Attrs[j].Polygen = sa.Attr
			}
		}
		out[i] = p
	}
	return out
}
