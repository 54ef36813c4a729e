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

// StarConfig parameterizes a star-schema federation: one wide fact relation
// and two small dimension relations, each owned by its own local database.
// It is the workload of the cost-based optimizer's tests — the shape where
// predicate/projection pushdown and join ordering dominate wide-area cost:
// the fact table is big and padded (so shipping it wholesale is expensive),
// the dimensions are small (so joining them first keeps intermediates
// tiny).
type StarConfig struct {
	// Facts is the fact relation's cardinality.
	Facts int
	// Dims is the first dimension's cardinality (FACT.DK ∈ [0, Dims)).
	Dims int
	// Mids is the second dimension's cardinality (FACT.MK ∈ [0, Mids)).
	Mids int
	// Categories is the domain size of FACT.CAT — a CAT selection keeps
	// ~1/Categories of the fact rows.
	Categories int
	// Seed fixes the generator.
	Seed int64
}

// DefaultStarConfig returns a small federation suitable for tests.
func DefaultStarConfig() StarConfig {
	return StarConfig{Facts: 2000, Dims: 50, Mids: 10, Categories: 10, Seed: 1}
}

// Star is a generated star-schema federation:
//
//	FD.FACT(FK, DK, MK, CAT, VAL, PAD)  — one row per fact, PAD is dead weight
//	DD.DIM(DK, DCAT)                    — first dimension
//	MD.MID(MK, GRADE)                   — second dimension
//
// with single-source polygen schemes PFACT, PDIM and PMID mapping the local
// columns one to one under the same names, so equi-joins on DK and MK
// coalesce naturally.
type Star struct {
	Config     StarConfig
	Registry   *sourceset.Registry
	FD, DD, MD *catalog.Database
	Schema     *core.Schema
}

// NewStar generates a star federation from cfg.
func NewStar(cfg StarConfig) *Star {
	if cfg.Categories < 1 {
		cfg.Categories = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Star{Config: cfg, Registry: sourceset.NewRegistry()}
	for _, db := range []string{"FD", "DD", "MD"} {
		s.Registry.Intern(db)
	}

	single := func(scheme, db, local string, attrs ...string) *core.Scheme {
		pas := make([]core.PolygenAttr, len(attrs))
		for i, a := range attrs {
			pas[i] = core.PolygenAttr{Name: a, Mapping: []core.LocalAttr{{DB: db, Scheme: local, Attr: a}}}
		}
		return &core.Scheme{Name: scheme, Key: attrs[0], Attrs: pas}
	}
	s.Schema = core.MustSchema(
		single("PFACT", "FD", "FACT", "FK", "DK", "MK", "CAT", "VAL", "PAD"),
		single("PDIM", "DD", "DIM", "DK", "DCAT"),
		single("PMID", "MD", "MID", "MK", "GRADE"),
	)

	s.FD = catalog.NewDatabase("FD")
	s.FD.MustCreate("FACT", rel.SchemaOf("FK", "DK", "MK", "CAT", "VAL", "PAD"), "FK")
	facts := make([]rel.Tuple, 0, cfg.Facts)
	for i := 0; i < cfg.Facts; i++ {
		facts = append(facts, rel.Tuple{
			rel.String(fmt.Sprintf("F%07d", i)),
			rel.String(fmt.Sprintf("D%04d", rng.Intn(max(cfg.Dims, 1)))),
			rel.String(fmt.Sprintf("M%04d", rng.Intn(max(cfg.Mids, 1)))),
			rel.String(fmt.Sprintf("cat%d", rng.Intn(cfg.Categories))),
			rel.Int(int64(rng.Intn(10_000))),
			rel.String(fmt.Sprintf("pad-%032d", i)),
		})
	}
	if err := s.FD.Insert("FACT", facts...); err != nil {
		panic(err)
	}

	s.DD = catalog.NewDatabase("DD")
	s.DD.MustCreate("DIM", rel.SchemaOf("DK", "DCAT"), "DK")
	dims := make([]rel.Tuple, 0, cfg.Dims)
	for i := 0; i < cfg.Dims; i++ {
		dims = append(dims, rel.Tuple{
			rel.String(fmt.Sprintf("D%04d", i)),
			rel.String(fmt.Sprintf("dcat%d", i%5)),
		})
	}
	if err := s.DD.Insert("DIM", dims...); err != nil {
		panic(err)
	}

	s.MD = catalog.NewDatabase("MD")
	s.MD.MustCreate("MID", rel.SchemaOf("MK", "GRADE"), "MK")
	mids := make([]rel.Tuple, 0, cfg.Mids)
	for i := 0; i < cfg.Mids; i++ {
		mids = append(mids, rel.Tuple{
			rel.String(fmt.Sprintf("M%04d", i)),
			rel.String(fmt.Sprintf("grade%d", i%3)),
		})
	}
	if err := s.MD.Insert("MID", mids...); err != nil {
		panic(err)
	}
	return s
}

// Databases returns the three catalogs in FD, DD, MD order.
func (s *Star) Databases() []*catalog.Database {
	return []*catalog.Database{s.FD, s.DD, s.MD}
}

// LQPs returns in-process LQPs keyed by database name.
func (s *Star) LQPs() map[string]lqp.LQP {
	out := make(map[string]lqp.LQP, 3)
	for _, db := range s.Databases() {
		out[db.Name()] = lqp.NewLocal(db)
	}
	return out
}
