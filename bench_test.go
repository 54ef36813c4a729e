// The benchmark harness of the reproduction (DESIGN.md §3). One benchmark
// regenerates each table and figure of the paper (E-T1..E-T9, E-A1..E-A9,
// E-F1..E-F4); the B-* benchmarks are our performance characterization —
// the 1990 paper reports no timings, so those measure the cost of source
// tagging itself, scaling in sources and overlap, the plan optimizer, the
// source-set representation, and the networked LQP path. EXPERIMENTS.md
// records a snapshot of the output.
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/rel"
	"repro/internal/relalg"
	"repro/internal/sourceset"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tables"
	"repro/internal/translate"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Paper artifacts: one benchmark per table and figure.

func paperPQP(b *testing.B) (*paperdata.Federation, *pqp.PQP) {
	b.Helper()
	fed := paperdata.New()
	return fed, pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
}

// BenchmarkTable1POM regenerates Table 1: parsing the §III algebraic
// expression and running the Syntax Analyzer.
func BenchmarkTable1POM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := translate.ParseExpr(tables.PaperExpr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := translate.Analyze(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2PassOne regenerates Table 2: pass one of the POI.
func BenchmarkTable2PassOne(b *testing.B) {
	fed := paperdata.New()
	pom, err := translate.Analyze(translate.MustParseExpr(tables.PaperExpr))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.PassOne(pom, fed.Schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3PassTwo regenerates Table 3: pass two of the POI.
func BenchmarkTable3PassTwo(b *testing.B) {
	fed := paperdata.New()
	pom, _ := translate.Analyze(translate.MustParseExpr(tables.PaperExpr))
	h, err := translate.PassOne(pom, fed.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.PassTwo(h, fed.Schema); err != nil {
			b.Fatal(err)
		}
	}
}

// paperPlan translates the §III query to its IOM once.
func paperPlan(b *testing.B, fed *paperdata.Federation) *translate.Matrix {
	b.Helper()
	pom, err := translate.Analyze(translate.MustParseExpr(tables.PaperExpr))
	if err != nil {
		b.Fatal(err)
	}
	iom, err := translate.Interpret(pom, fed.Schema)
	if err != nil {
		b.Fatal(err)
	}
	return iom
}

// benchPlanPrefix executes the first n rows of Table 3's plan — each
// BenchmarkTableK below measures the work required to materialize that
// table's register.
func benchPlanPrefix(b *testing.B, rows int) {
	fed, q := paperPQP(b)
	iom := paperPlan(b, fed)
	prefix := &translate.Matrix{Rows: iom.Rows[:rows]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(prefix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4SelectAtAD materializes R(1) (Table 4).
func BenchmarkTable4SelectAtAD(b *testing.B) { benchPlanPrefix(b, 1) }

// BenchmarkTable5JoinCareer materializes R(3) (Table 5).
func BenchmarkTable5JoinCareer(b *testing.B) { benchPlanPrefix(b, 3) }

// BenchmarkTable6Merge materializes R(7) (Table 6 / A9).
func BenchmarkTable6Merge(b *testing.B) { benchPlanPrefix(b, 7) }

// BenchmarkTable7JoinOrganizations materializes R(8) (Table 7).
func BenchmarkTable7JoinOrganizations(b *testing.B) { benchPlanPrefix(b, 8) }

// BenchmarkTable8Restrict materializes R(9) (Table 8).
func BenchmarkTable8Restrict(b *testing.B) { benchPlanPrefix(b, 9) }

// BenchmarkTable9FullQuery materializes R(10) (Table 9) — the whole plan.
func BenchmarkTable9FullQuery(b *testing.B) { benchPlanPrefix(b, 10) }

// appendixInputs retrieves and tags A1–A3 once.
func appendixInputs(b *testing.B) (*core.Algebra, *core.Relation, *core.Relation, *core.Relation) {
	b.Helper()
	art, err := tables.Compute()
	if err != nil {
		b.Fatal(err)
	}
	return art.PQP.Algebra(), art.A[1], art.A[2], art.A[3]
}

// BenchmarkTableA1toA3Retrieve regenerates the three tagged base relations.
func BenchmarkTableA1toA3Retrieve(b *testing.B) {
	fed, q := paperPQP(b)
	_ = fed
	plan := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("BUSINESS"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 2, Op: translate.OpRetrieve, LHR: translate.LocalOperand("CORPORATION"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PD"},
		{PR: 3, Op: translate.OpRetrieve, LHR: translate.LocalOperand("FIRM"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "CD"},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableA4OuterJoin regenerates Table A4.
func BenchmarkTableA4OuterJoin(b *testing.B) {
	alg, a1, a2, _ := appendixInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.OuterJoin(a1, "BNAME", a2, "CNAME"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableA5PrimaryJoin regenerates Table A5 (ONPJ of A1, A2).
func BenchmarkTableA5PrimaryJoin(b *testing.B) {
	alg, a1, a2, _ := appendixInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oj, err := alg.OuterJoin(a1, "BNAME", a2, "CNAME")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := alg.Coalesce(oj, "BNAME", "CNAME", "ONAME"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableA6TotalJoin regenerates Table A6 (ONTJ of A1, A2).
func BenchmarkTableA6TotalJoin(b *testing.B) {
	fed := paperdata.New()
	scheme, _ := fed.Schema.Scheme("PORGANIZATION")
	alg, a1, a2, _ := appendixInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Merge(scheme, a1, a2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableA7toA9SecondTotalJoin regenerates A7–A9: the ONTJ of A6
// with A3 (computed stepwise in the harness; here as one total join).
func BenchmarkTableA7toA9SecondTotalJoin(b *testing.B) {
	fed := paperdata.New()
	scheme, _ := fed.Schema.Scheme("PORGANIZATION")
	art, err := tables.Compute()
	if err != nil {
		b.Fatal(err)
	}
	alg := art.PQP.Algebra()
	a6, a3 := art.A[6], art.A[3]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Merge(scheme, a6, a3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1EndToEndInProcess is E-F1 over in-process LQPs: SQL text
// to tagged answer (the full Figure 1 path minus sockets).
func BenchmarkFigure1EndToEndInProcess(b *testing.B) {
	_, q := paperPQP(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.QuerySQL(tables.PaperSQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Relation.Cardinality() != 3 {
			b.Fatal("wrong answer")
		}
	}
}

// BenchmarkFigure1EndToEndTCP is E-F1 with the LQPs behind loopback TCP.
func BenchmarkFigure1EndToEndTCP(b *testing.B) {
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	for _, db := range fed.Databases() {
		srv := wire.NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		lqps[client.Name()] = client
	}
	q := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.QuerySQL(tables.PaperSQL)
		if err != nil {
			b.Fatal(err)
		}
		if res.Relation.Cardinality() != 3 {
			b.Fatal("wrong answer")
		}
	}
}

// BenchmarkFigure2Pipeline is E-F2: the Syntax Analyzer → POI → Optimizer
// pipeline without execution.
func BenchmarkFigure2Pipeline(b *testing.B) {
	fed := paperdata.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := translate.CompileSQL(tables.PaperSQL, fed.Schema)
		if err != nil {
			b.Fatal(err)
		}
		pom, err := translate.Analyze(e)
		if err != nil {
			b.Fatal(err)
		}
		iom, err := translate.Interpret(pom, fed.Schema)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := translate.Optimize(iom); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3PassOne / BenchmarkFigure4PassTwo are E-F3/E-F4 on the
// multi-source §I query, which exercises the branches the example query
// does not (both-sides-local relocation).
func BenchmarkFigure3PassOne(b *testing.B) {
	fed := paperdata.New()
	pom, err := translate.Analyze(translate.MustParseExpr(`PORGANIZATION [CEO = ANAME] PALUMNUS`))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.PassOne(pom, fed.Schema); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4PassTwo(b *testing.B) {
	fed := paperdata.New()
	pom, _ := translate.Analyze(translate.MustParseExpr(`PORGANIZATION [CEO = ANAME] PALUMNUS`))
	h, err := translate.PassOne(pom, fed.Schema)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.PassTwo(h, fed.Schema); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// B-OV: source tagging overhead against the untagged relational baseline.

func overheadInputs(b *testing.B, n int) (*core.Algebra, []*core.Relation, []*rel.Relation) {
	b.Helper()
	f := workload.New(workload.Config{Databases: 2, Entities: n, Overlap: 1, Categories: 10, Seed: 42})
	return core.NewAlgebra(nil), f.TaggedFragments(), f.PlainFragments()
}

func BenchmarkTagOverheadSelect(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		alg, tagged, plain := overheadInputs(b, n)
		cat := rel.String("cat3")
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relalg.Select(plain[0], "CAT", rel.ThetaEQ, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("polygen/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Select(tagged[0], "CAT", rel.ThetaEQ, cat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTagOverheadProject(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		alg, tagged, plain := overheadInputs(b, n)
		cols := []string{"KEY", "CAT"}
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relalg.Project(plain[0], cols); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("polygen/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Project(tagged[0], cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTagOverheadJoin(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		alg, tagged, plain := overheadInputs(b, n)
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relalg.Join(plain[0], "KEY", plain[1], "KEY"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("polygen/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Join(tagged[0], "KEY", rel.ThetaEQ, tagged[1], "KEY"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTagOverheadUnion(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		alg, tagged, plain := overheadInputs(b, n)
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := relalg.Union(plain[0], plain[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("polygen/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Union(tagged[0], tagged[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-SRC / B-OVL: Merge scaling.

func BenchmarkMergeSources(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		f := workload.New(workload.Config{Databases: n, Entities: 2000, Overlap: 0.5, Categories: 10, Seed: 42})
		alg := core.NewAlgebra(nil)
		frags := f.TaggedFragments()
		b.Run(fmt.Sprintf("databases=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Merge(f.Scheme, frags...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMergeOverlap(b *testing.B) {
	for _, ov := range []float64{0.0, 0.5, 1.0} {
		f := workload.New(workload.Config{Databases: 8, Entities: 2000, Overlap: ov, Categories: 10, Seed: 42})
		alg := core.NewAlgebra(nil)
		frags := f.TaggedFragments()
		b.Run(fmt.Sprintf("overlap=%.2f", ov), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.Merge(f.Scheme, frags...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-SET: source-set representation ablation (bitset Set vs sorted SliceSet).

func BenchmarkSourceSetUnionBitset(b *testing.B) {
	a := sourceset.Of(0, 2, 5)
	c := sourceset.Of(1, 2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Union(c)
	}
}

func BenchmarkSourceSetUnionSlice(b *testing.B) {
	a := sourceset.SliceOf(0, 2, 5)
	c := sourceset.SliceOf(1, 2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Union(c)
	}
}

func BenchmarkSourceSetUnionBitsetOverflow(b *testing.B) {
	a := sourceset.Of(0, 70, 100)
	c := sourceset.Of(1, 70, 130)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Union(c)
	}
}

// ---------------------------------------------------------------------------
// B-OPT: optimizer ablation on a query with redundant fan-out.

func BenchmarkOptimizerAblation(b *testing.B) {
	fed := paperdata.New()
	lqps := fed.LQPs()
	const redundant = `(PORGANIZATION [INDUSTRY = "Banking"]) UNION (PORGANIZATION [INDUSTRY = "Energy"])`
	for _, optimize := range []bool{false, true} {
		name := "off"
		if optimize {
			name = "on"
		}
		b.Run("optimizer="+name, func(b *testing.B) {
			q := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
			q.Optimize = optimize
			for i := 0; i < b.N; i++ {
				if _, err := q.QueryAlgebra(redundant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newStarPQP builds the B-OPT federation: the star-schema workload behind
// Counting LQPs with an injected per-batch wide-area latency, the shape
// where the cost-based optimizer's pushdown and join-order decisions
// dominate (see workload.NewStar for the knobs).
func newStarPQP(b *testing.B, latency time.Duration) (*pqp.PQP, map[string]*lqp.Counting) {
	b.Helper()
	cfg := workload.DefaultStarConfig()
	if !testing.Short() {
		cfg.Facts = 20000
	}
	star := workload.NewStar(cfg)
	counters := make(map[string]*lqp.Counting, 3)
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range star.LQPs() {
		c := lqp.NewCounting(l)
		c.Latency = latency
		counters[name] = c
		lqps[name] = c
	}
	q := pqp.New(star.Schema, star.Registry, nil, lqps)
	if err := q.CollectStats(); err != nil {
		b.Fatal(err)
	}
	return q, counters
}

// BenchmarkFederatedPushdown (B-OPT) ablates the cost-based optimizer on a
// chained-selection query over the padded fact relation: unoptimized, the
// pass-one-pushed CAT selection still ships six columns of every matching
// row and the VAL filter runs PQP-side; optimized, the whole
// Select∘Select∘Project pipeline executes inside the fact LQP and only the
// surviving single-column rows pay the injected per-batch wide-area
// latency. cells/query is the simulated bytes-on-wire metric.
func BenchmarkFederatedPushdown(b *testing.B) {
	const query = `((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`
	for _, optimize := range []bool{false, true} {
		name := "off"
		if optimize {
			name = "on"
		}
		b.Run("optimizer="+name, func(b *testing.B) {
			q, counters := newStarPQP(b, 2*time.Millisecond)
			q.Optimize = optimize
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.QueryAlgebra(query); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cells := int64(0)
			for _, c := range counters {
				cells += c.CellsTransferred()
			}
			b.ReportMetric(float64(cells)/float64(b.N), "cells/query")
		})
	}
}

// BenchmarkFederatedJoinOrder (B-OPT) ablates join ordering on a star join
// whose selective dimension filter is written LAST: as written, the plan
// joins the full fact relation against DIM first and only then against the
// filtered MID. mode=strict keeps the paper's tag-exact order (only
// build-side swaps are admissible there; none fires for this shape);
// mode=relaxed lets the greedy pass attach the filtered dimension first, so
// the second join probes ~40% of the fact rows instead of all of them — at
// the cost of an order-dependent intermediate-tag audit trail (data and
// origin tags are proven unchanged by the property suite).
func BenchmarkFederatedJoinOrder(b *testing.B) {
	const query = `(((PFACT [MK = MK] PMID) [DK = DK] (PDIM [DCAT = "dcat0"])) [VAL, DCAT, GRADE])`
	for _, mode := range []string{"unoptimized", "strict", "relaxed"} {
		b.Run("mode="+mode, func(b *testing.B) {
			q, _ := newStarPQP(b, 0)
			q.Optimize = mode != "unoptimized"
			q.RelaxedJoinReorder = mode == "relaxed"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.QueryAlgebra(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Wire protocol round trip.

func BenchmarkWireRetrieve(b *testing.B) {
	fed := paperdata.New()
	srv := wire.NewServer(fed.CD)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := client.Open(lqp.Retrieve("FIRM"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rel.Drain(cur); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// B-KEY: key-representation ablation — the string-keyed engine the algebra
// shipped with (Tuple.DataKey / Resolver.Canonical, one make per row; kept
// as the Ref* operators in core/reference.go) against the hash-native engine
// (Tuple.DataHash64 buckets confirmed with DataEqual, interned CanonicalID
// join probes, arena-backed rows). Scaling in sources exercises the
// sourceset overflow path (IDs >= 64); scaling in tuples exercises the dedup
// and probe tables. EXPERIMENTS.md records a snapshot.

// keyAblationInput builds a pair of 3-column polygen relations with n tuples
// each over a registry of s sources. Every entity appears twice in each
// relation (so Project and Union exercise tag merging), the two relations
// overlap on half their entities (so Join produces matches), and every cell
// is tagged with one of the s sources round-robin — with s > 64 the tag sets
// spill into the sourceset overflow slice.
func keyAblationInput(s, n int) (*core.Relation, *core.Relation) {
	reg := sourceset.NewRegistry()
	ids := make([]sourceset.ID, s)
	for i := 0; i < s; i++ {
		ids[i] = reg.Intern(fmt.Sprintf("S%d", i))
	}
	mk := func(name string, base int) *core.Relation {
		p := core.NewRelation(name, reg,
			core.Attr{Name: "KEY", Polygen: "KEY"},
			core.Attr{Name: "CAT", Polygen: "CAT"},
			core.Attr{Name: "VAL", Polygen: "VAL"},
		)
		for i := 0; i < n; i++ {
			e := base + i/2 // each entity twice
			origin := sourceset.Of(ids[i%s])
			row := p.NewRow(3)
			row[0] = core.Cell{D: rel.String(fmt.Sprintf("E%07d", e)), O: origin}
			row[1] = core.Cell{D: rel.String(fmt.Sprintf("cat%d", e%97)), O: origin}
			row[2] = core.Cell{D: rel.Int(int64(e)), O: origin}
			if err := p.Append(row); err != nil {
				panic(err)
			}
		}
		return p
	}
	// p2 starts halfway through p1's entity range: half the entities join.
	return mk("P1", 0), mk("P2", n/4)
}

// benchKeyedOps runs the three acceptance operators at one (sources, tuples)
// point for both key representations.
func benchKeyedOps(b *testing.B, s, n int) {
	alg := core.NewAlgebra(nil)
	p1, p2 := keyAblationInput(s, n)
	cols := []string{"KEY", "CAT"}
	type impl struct {
		name    string
		project func(*core.Relation, []string) (*core.Relation, error)
		union   func(_, _ *core.Relation) (*core.Relation, error)
		join    func(*core.Relation, string, rel.Theta, *core.Relation, string) (*core.Relation, error)
	}
	impls := []impl{
		{"string", alg.RefProject, alg.RefUnion, alg.RefJoin},
		{"hash", alg.Project, alg.Union, alg.Join},
	}
	for _, im := range impls {
		b.Run(fmt.Sprintf("op=Project/keys=%s", im.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := im.project(p1, cols); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("op=Union/keys=%s", im.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := im.union(p1, p2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("op=Join/keys=%s", im.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := im.join(p1, "KEY", rel.ThetaEQ, p2, "KEY"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeyRepresentationSources scales the source count at 100k tuples:
// 10 sources stay within the 64-ID tag bitmask; 100 and 1000 sources spill
// tag sets into the sourceset overflow slice.
func BenchmarkKeyRepresentationSources(b *testing.B) {
	for _, s := range []int{10, 100, 1000} {
		if s > 100 && testing.Short() {
			continue // CI smoke: skip the widest point; measurement runs cover it
		}
		b.Run(fmt.Sprintf("src=%d/n=100000", s), func(b *testing.B) {
			benchKeyedOps(b, s, 100000)
		})
	}
}

// BenchmarkKeyRepresentationTuples scales the tuple count at 100 sources,
// 1k to 1M. The 1M point is skipped under -short to keep CI smoke runs fast.
func BenchmarkKeyRepresentationTuples(b *testing.B) {
	for _, n := range []int{1000, 100000, 1000000} {
		if n > 100000 && testing.Short() {
			continue
		}
		b.Run(fmt.Sprintf("src=100/n=%d", n), func(b *testing.B) {
			benchKeyedOps(b, 100, n)
		})
	}
}

// ---------------------------------------------------------------------------
// B-STREAM: streaming vs. materializing execution.
//
// The fixture is a deliberately memory-hostile pipeline: retrieve an
// n-tuple fragment from one LQP, select ~1/1000th of it at the PQP, project
// one column. Retain mode (ExecuteMaterialized, "materializing") holds the
// whole tagged retrieve (and each intermediate) live; streaming holds
// batches in flight plus the small final result, so its peak heap stays
// roughly flat as n grows. BenchmarkStreamingMemory reports the peak live heap as "peak-B";
// its ns/op includes the instrumentation's forced collections, so timing
// comparisons belong to the other benchmarks. BenchmarkStreamingOverlap
// uses latency-injected LQPs (Counting charges latency per batch, modeling
// a wide-area streaming transfer) to show streaming overlapping the
// retrievals that retain mode runs one after another.

// benchStreamFixture builds a one-database federation of n entities and the
// retrieve→select→project plan over it.
func benchStreamFixture(n int) (*pqp.PQP, *translate.Matrix) {
	f := workload.New(workload.Config{Databases: 1, Entities: n, Overlap: 1, Categories: 1000, Seed: 7})
	q := pqp.New(f.Schema, f.Registry, identity.Exact{}, f.LQPs())
	plan := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("FRAG"),
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: workload.DBName(0)},
		{PR: 2, Op: translate.OpSelect, LHR: translate.RegOperand(1), LHA: []string{"CAT"},
			Theta: rel.ThetaEQ, HasTheta: true, RHA: translate.ConstComparand(rel.String("cat7")),
			RHR: translate.NoOperand(), EL: "PQP"},
		{PR: 3, Op: translate.OpProject, LHR: translate.RegOperand(2), LHA: []string{"KEY"},
			RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP"},
	}}
	return q, plan
}

// liveHeap returns the heap bytes actually retained right now. Two
// collections: objects allocated during a concurrent mark phase are kept
// until the NEXT cycle, so a single GC mid-run would report in-flight
// garbage as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return s.HeapAlloc
}

// measureMaterializedPeak measures the peak live heap (over a post-GC
// baseline) of a retain-mode run, probing synchronously from the
// engine's Trace hook — it fires after each register materializes, while
// the registers it was built from are still held — and once at the end
// with the result alive. No concurrent sampling: every probe runs on the
// engine's own goroutine at a quiescent point, so the readings are
// deterministic.
func measureMaterializedPeak(q *pqp.PQP, plan *translate.Matrix) (uint64, error) {
	base := liveHeap()
	var peak uint64
	q.Trace = func(string, ...any) {
		if s := liveHeap(); s > peak {
			peak = s
		}
	}
	res, err := q.ExecuteMaterialized(plan)
	q.Trace = nil
	if err != nil {
		return 0, err
	}
	if f := liveHeap(); f > peak {
		peak = f
	}
	runtime.KeepAlive(res)
	if peak < base {
		return 0, nil
	}
	return peak - base, nil
}

// measureStreamingPeak drives the streaming engine's cursor tree by hand,
// probing the live heap from inside the drain loop — at exponentially
// spaced batch counts plus every 512th batch — and once at the end with
// the result alive. Probes run between batches on the consumer goroutine:
// exactly the steady state whose footprint the streaming engine claims to
// bound.
func measureStreamingPeak(q *pqp.PQP, plan *translate.Matrix) (uint64, error) {
	base := liveHeap()
	var peak uint64
	cur, err := q.OpenPlan(plan)
	if err != nil {
		return 0, err
	}
	out := core.NewRelation(cur.Name(), cur.Registry(), cur.Attrs()...)
	for batches := 0; ; batches++ {
		batch, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cur.Close()
			return 0, err
		}
		out.Tuples = append(out.Tuples, batch...)
		if batches&(batches-1) == 0 || batches%512 == 0 {
			if s := liveHeap(); s > peak {
				peak = s
			}
		}
	}
	if err := cur.Close(); err != nil {
		return 0, err
	}
	if f := liveHeap(); f > peak {
		peak = f
	}
	runtime.KeepAlive(out)
	if peak < base {
		return 0, nil
	}
	return peak - base, nil
}

func BenchmarkStreamingMemory(b *testing.B) {
	for _, n := range []int{100000, 300000, 1000000} {
		if testing.Short() && n > 100000 {
			continue
		}
		q, plan := benchStreamFixture(n)
		engines := []struct {
			name string
			run  func() (uint64, error)
		}{
			{"materializing", func() (uint64, error) { return measureMaterializedPeak(q, plan) }},
			{"streaming", func() (uint64, error) { return measureStreamingPeak(q, plan) }},
		}
		for _, eng := range engines {
			b.Run(fmt.Sprintf("n=%d/engine=%s", n, eng.name), func(b *testing.B) {
				var peak uint64
				for i := 0; i < b.N; i++ {
					p, err := eng.run()
					if err != nil {
						b.Fatal(err)
					}
					if p > peak {
						peak = p
					}
				}
				b.ReportMetric(float64(peak), "peak-B")
			})
		}
	}
}

func BenchmarkStreamingOverlap(b *testing.B) {
	const latency = 2 * time.Millisecond
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := lqp.NewCounting(l)
		c.Latency = latency
		lqps[name] = c
	}
	q := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	e, err := translate.CompileSQL(`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`, fed.Schema)
	if err != nil {
		b.Fatal(err)
	}
	res, err := q.Run(e)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name string
		run  func() (*core.Relation, error)
	}{
		{"materializing", func() (*core.Relation, error) { return q.ExecuteMaterialized(res.Plan) }},
		{"streaming", func() (*core.Relation, error) { return q.Execute(res.Plan) }},
	}
	for _, eng := range engines {
		b.Run("engine="+eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-SERVE: mediator service throughput and tail latency. Where every other
// benchmark measures one caller's wall time, these measure the serving
// system polygend stands up: N closed-loop wire clients sharing one
// mediator (one PQP, one plan cache, one stats catalog) over TCP, with an
// injected per-batch wide-area latency at the LQPs so that concurrency has
// real waiting to overlap. Reported: qps, p50/p99 latency (see
// workload.Drive), plus plan-cache hits.

// newServeMediator stands up the B-SERVE service: the star federation
// behind latency-injected Counting LQPs, a shared PQP (plan cache on or
// off), the mediator session layer, and a wire server. It returns the bound
// address and the service (for cache statistics).
func newServeMediator(b *testing.B, cfg workload.StarConfig, latency time.Duration, cache bool) (string, *mediator.Service) {
	b.Helper()
	star := workload.NewStar(cfg)
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range star.LQPs() {
		c := lqp.NewCounting(l)
		c.Latency = latency
		lqps[name] = c
	}
	q := pqp.New(star.Schema, star.Registry, nil, lqps)
	if !cache {
		q.Plans = nil
	}
	if err := q.CollectStats(); err != nil {
		b.Fatal(err)
	}
	svc := mediator.New(q, mediator.Config{Federation: "star"})
	srv := wire.NewMediatorServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return addr, svc
}

// serveClients dials one wire client + session per closed-loop worker.
func serveClients(b *testing.B, addr string, n int) ([]*wire.Client, []string) {
	b.Helper()
	clients := make([]*wire.Client, n)
	sessions := make([]string, n)
	for i := range clients {
		c, err := wire.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		info, err := c.OpenSession()
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
		sessions[i] = info.ID
	}
	return clients, sessions
}

// BenchmarkServeThroughput (B-SERVE) measures concurrent throughput scaling:
// the same closed-loop query mix at 1..8 clients. With per-batch wide-area
// latency dominating each query, a correctly concurrent service scales
// near-linearly in clients (the acceptance bar is ≥3x qps at 8 clients vs
// 1); a service serializing on one connection or one engine lock would stay
// flat. ns/op is per-query wall time per client; qps is aggregate.
func BenchmarkServeThroughput(b *testing.B) {
	const latency = time.Millisecond
	queries := workload.StarQueries()
	// The label carries GOMAXPROCS so runs from different machines compare.
	workers := runtime.GOMAXPROCS(0)
	for _, nclients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d/workers=%d", nclients, workers), func(b *testing.B) {
			addr, _ := newServeMediator(b, workload.DefaultStarConfig(), latency, true)
			clients, sessions := serveClients(b, addr, nclients)
			// Warm the plan cache and the canonical-ID interner so every
			// worker measures steady-state serving.
			for _, qt := range queries {
				if _, err := clients[0].Query(sessions[0], qt, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			res := workload.Drive(nclients, b.N, func(w, i int) error {
				_, err := clients[w].Query(sessions[w], queries[(w+i)%len(queries)], true)
				return err
			})
			b.StopTimer()
			if res.Errors > 0 {
				b.Fatalf("%d queries failed", res.Errors)
			}
			b.ReportMetric(res.QPS, "qps")
			b.ReportMetric(float64(res.P50.Microseconds()), "p50-µs")
			b.ReportMetric(float64(res.P95.Microseconds()), "p95-µs")
			b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
		})
	}
}

// BenchmarkServePlanCache (B-SERVE) ablates the plan cache on the mediator's
// serving interface, in-process so the measurement isolates what the cache
// elides — parsing aside, the whole translation pipeline and the cost-based
// optimizer (pushdown analysis plus the join-order search over candidate
// layouts) — from wire and transfer costs. A tiny federation keeps
// execution cheap; allocs/op shows the hit path allocating no
// translation or reorder-search work (the property suite additionally
// proves the cached matrices are reused pointer-identical); hits/query
// reports the measured hit rate.
func BenchmarkServePlanCache(b *testing.B) {
	cfg := workload.StarConfig{Facts: 200, Dims: 20, Mids: 5, Categories: 10, Seed: 1}
	queries := []string{
		`(((PFACT [MK = MK] PMID) [DK = DK] (PDIM [DCAT = "dcat0"])) [VAL, DCAT, GRADE])`,
		`((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`,
	}
	for _, cache := range []bool{false, true} {
		name := "off"
		if cache {
			name = "on"
		}
		b.Run("plancache="+name, func(b *testing.B) {
			_, svc := newServeMediator(b, cfg, 0, cache)
			for _, qt := range queries {
				if _, err := svc.Query("", qt, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Query("", queries[i%len(queries)], true); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cache {
				st := svc.PQP().Plans.Stats()
				b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/query")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// B-FAULT: fault-tolerant federation (internal/federation over a replicated
// star). Each logical source has three replicas; one misbehaves per
// scenario — killed (every call fails), hung (stalls until the per-call
// deadline), slow (latency spike), cut (dies after its first streamed
// batch) — and "none" is the fault-free control behind the same federation
// layer. The numbers to watch: qps and p99 degrade gracefully instead of
// stalling (a dead replica costs at most its deadline plus failover, never
// a hang), and hedges/retries quantify how often the resilience machinery
// actually fired. EXPERIMENTS.md records a snapshot.

// BenchmarkFaultScenarios (B-FAULT) drives the closed-loop star query mix at
// four workers against each scenario. Every query must still answer
// correctly (the workload property suite holds the answers identical
// cell-for-cell); here only latency and throughput are measured.
func BenchmarkFaultScenarios(b *testing.B) {
	queries := workload.StarQueries()
	for _, scenario := range workload.Scenarios() {
		b.Run("scenario="+string(scenario), func(b *testing.B) {
			cat := stats.NewCatalog()
			cfg := workload.FaultConfig{
				Star:     workload.DefaultStarConfig(),
				Scenario: scenario,
				Seed:     1,
				Latency:  2 * time.Millisecond,
				Hang:     time.Second,
				Federation: federation.Config{
					CallTimeout: 250 * time.Millisecond,
					MaxRetries:  1,
					BackoffBase: time.Millisecond,
					BackoffMax:  4 * time.Millisecond,
					HedgeDelay:  0, // adaptive: hedge at the primary's p95
					Seed:        1,
					Stats:       cat,
				},
			}
			rs := workload.NewReplicatedStar(cfg)
			q := pqp.New(rs.Star.Schema, rs.Star.Registry, nil, rs.LQPs())
			for _, qt := range queries {
				if _, err := q.QueryAlgebra(qt); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			res := workload.Drive(4, b.N, func(w, i int) error {
				_, err := q.QueryAlgebra(queries[(w+i)%len(queries)])
				return err
			})
			b.StopTimer()
			if res.Errors > 0 {
				b.Fatalf("%d queries failed under scenario %s; three replicas should absorb one fault", res.Errors, scenario)
			}
			var hedges, retries int64
			for _, db := range []string{"FD", "DD", "MD"} {
				f := cat.Faults(db)
				hedges += f.Hedges
				retries += f.Retries
			}
			b.ReportMetric(res.QPS, "qps")
			b.ReportMetric(float64(res.P50.Microseconds()), "p50-µs")
			b.ReportMetric(float64(res.P95.Microseconds()), "p95-µs")
			b.ReportMetric(float64(res.P99.Microseconds()), "p99-µs")
			b.ReportMetric(float64(hedges)/float64(res.Ops), "hedges/query")
			b.ReportMetric(float64(retries)/float64(res.Ops), "retries/query")
		})
	}
}

// BenchmarkFaultDeadline (B-FAULT) is the never-stalls demonstration in
// isolation: a single query against a federation whose primary replicas all
// hang far longer than the per-call deadline. Wall time per query must sit
// near the deadline-plus-failover budget, nowhere near the hang.
func BenchmarkFaultDeadline(b *testing.B) {
	const deadline = 50 * time.Millisecond
	cfg := workload.FaultConfig{
		Star:     workload.DefaultStarConfig(),
		Scenario: workload.ScenarioHung,
		Seed:     1,
		Hang:     10 * time.Second,
		Federation: federation.Config{
			CallTimeout:     deadline,
			MaxRetries:      1,
			BackoffBase:     time.Millisecond,
			BackoffMax:      4 * time.Millisecond,
			HedgeDelay:      -1, // isolate the deadline path
			BreakerCooldown: time.Hour,
			Seed:            1,
		},
	}
	rs := workload.NewReplicatedStar(cfg)
	q := pqp.New(rs.Star.Schema, rs.Star.Registry, nil, rs.LQPs())
	const query = `((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.QueryAlgebra(query); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// B-SHARD: the sharded scatter-gather federation. The star workload runs
// against one logical federation dealt across N shard slices per source
// (every shard behind a Counting meter, so the simulated bytes-on-wire per
// endpoint are measured alongside latency), and against the single-endpoint
// baseline the scatter must not regress from. The headline curve is
// max-shard-cells/query shrinking toward total/N as N grows — each daemon
// serves (and pays transfer for) only its slice — while qps holds.

// shardBenchFederation wires the star behind the federation layer with
// every source dealt across `shards` slices (shards < 1 = the unsharded
// single-endpoint baseline), each endpoint wrapped in a Counting transfer
// meter. Statistics are collected so placement keys are primed and the
// cost-based passes see per-shard cardinalities.
func shardBenchFederation(b *testing.B, shards int) (*pqp.PQP, []*lqp.Counting) {
	b.Helper()
	star := workload.NewStar(workload.DefaultStarConfig())
	reg := federation.NewRegistry(federation.Config{CallTimeout: 10 * time.Second, HedgeDelay: -1})
	var meters []*lqp.Counting
	if shards < 1 {
		for _, db := range star.Databases() {
			c := lqp.NewCounting(lqp.NewLocal(db))
			meters = append(meters, c)
			reg.Add(db.Name(), c)
		}
	} else {
		for _, db := range star.Databases() {
			groups := make([][]lqp.LQP, shards)
			for i := 0; i < shards; i++ {
				slice, err := federation.Slice(db, i, shards)
				if err != nil {
					b.Fatal(err)
				}
				c := lqp.NewCounting(lqp.NewLocal(slice))
				meters = append(meters, c)
				groups[i] = []lqp.LQP{c}
			}
			src := reg.AddSharded(db.Name(), groups...)
			src.SetShardKeys(federation.NewShardMap(db, shards).Keys)
		}
	}
	q := pqp.New(star.Schema, star.Registry, nil, reg.LQPs())
	if err := q.CollectStats(); err != nil {
		b.Fatal(err)
	}
	return q, meters
}

// reportShardTransfer reads the per-endpoint meters and reports the
// bytes-per-shard story: total simulated cells per query and the hottest
// endpoint's share (the per-daemon cost a deployment actually provisions).
func reportShardTransfer(b *testing.B, meters []*lqp.Counting, ops int64) {
	var total, maxCells int64
	for _, m := range meters {
		c := m.CellsTransferred()
		total += c
		if c > maxCells {
			maxCells = c
		}
	}
	b.ReportMetric(float64(total)/float64(ops), "cells/query")
	b.ReportMetric(float64(maxCells)/float64(ops), "max-shard-cells/query")
}

// BenchmarkShardScatterGather (B-SHARD) drives the closed-loop star query
// mix against the single-endpoint federation and against 1/2/4/8-way
// sharded ones. Scatter-gather must hold qps at N=1 (degenerate sharding is
// nearly free) and shrink max-shard-cells/query toward 1/N as N grows.
func BenchmarkShardScatterGather(b *testing.B) {
	queries := workload.StarQueries()
	modes := []struct {
		name   string
		shards int
	}{
		{"endpoint=single", 0},
		{"shards=1", 1},
		{"shards=2", 2},
		{"shards=4", 4},
		{"shards=8", 8},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			q, meters := shardBenchFederation(b, mode.shards)
			for _, qt := range queries {
				if _, err := q.QueryAlgebra(qt); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range meters {
				m.Reset()
			}
			b.ResetTimer()
			res := workload.Drive(4, b.N, func(w, i int) error {
				_, err := q.QueryAlgebra(queries[(w+i)%len(queries)])
				return err
			})
			b.StopTimer()
			if res.Errors > 0 {
				b.Fatalf("%d queries failed against a healthy sharded federation", res.Errors)
			}
			b.ReportMetric(res.QPS, "qps")
			b.ReportMetric(float64(res.P50.Microseconds()), "p50-µs")
			b.ReportMetric(float64(res.P95.Microseconds()), "p95-µs")
			reportShardTransfer(b, meters, int64(res.Ops))
		})
	}
}

// BenchmarkShardPrunedRetrieve (B-SHARD) isolates placement-key pruning: a
// key-equality select is answered by exactly one shard no matter N, so
// cells/query stays flat while the untouched shards serve nothing — the
// scatter does not tax point lookups with a fan-out.
func BenchmarkShardPrunedRetrieve(b *testing.B) {
	const query = `(PFACT [FK = "F0001234"]) [FK, CAT, VAL]`
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			q, meters := shardBenchFederation(b, shards)
			if _, err := q.QueryAlgebra(query); err != nil {
				b.Fatal(err)
			}
			for _, m := range meters {
				m.Reset()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.QueryAlgebra(query); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportShardTransfer(b, meters, int64(b.N))
		})
	}
}

// ---------------------------------------------------------------------------
// B-STORE (durability): the write-ahead segment log. Replay throughput
// bounds restart time, and the append sweep is what logging (and each fsync
// policy) costs per acknowledged write against the bare in-memory catalog.

func storeBenchRow(i int) rel.Tuple {
	return rel.Tuple{
		rel.String(fmt.Sprintf("K%07d", i)),
		rel.Int(int64(i * 13)),
		rel.String(fmt.Sprintf("payload row %d with some width to it", i)),
	}
}

func storeBenchSeed(b *testing.B) *catalog.Database {
	b.Helper()
	db := catalog.NewDatabase("BENCH")
	// Keyed on K: the catalog's key index makes the uniqueness check
	// O(batch), so it does not swamp the log append being measured.
	if err := db.Create("R", rel.SchemaOf("K", "V", "NOTE"), "K"); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkStoreReplay (B-STORE): recovering a store whose state lives
// entirely in the log tail — decode, checksum and apply n records. SetBytes
// reports it as replay MB/s.
func BenchmarkStoreReplay(b *testing.B) {
	sizes := []int{1000, 20000}
	if testing.Short() {
		sizes = []int{1000}
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			opts := store.Options{Fsync: store.FsyncInterval, CompactBytes: -1}
			st, err := store.Open(dir, "BENCH", storeBenchSeed(b), opts)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := st.Insert("R", storeBenchRow(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			warm, err := store.Open(dir, "BENCH", nil, opts)
			if err != nil {
				b.Fatal(err)
			}
			replay := warm.Stats()
			if err := warm.Close(); err != nil {
				b.Fatal(err)
			}
			if replay.ReplayRecords != int64(n) {
				b.Fatalf("replayed %d records, want %d", replay.ReplayRecords, n)
			}
			b.SetBytes(replay.ReplayBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.Open(dir, "BENCH", nil, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreAppend (B-STORE): one acknowledged single-row insert, per
// durability mode. mode=memory is the bare catalog (the pre-durability
// baseline); wal-interval adds encoding, checksumming and the buffered log
// write; wal-always adds the fsync each acknowledgment waits on — the real
// price of "an acked write survives any crash".
func BenchmarkStoreAppend(b *testing.B) {
	b.Run("mode=memory", func(b *testing.B) {
		db := storeBenchSeed(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := db.Insert("R", storeBenchRow(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []store.FsyncMode{store.FsyncInterval, store.FsyncAlways} {
		b.Run(fmt.Sprintf("mode=wal-%s", mode), func(b *testing.B) {
			st, err := store.Open(b.TempDir(), "BENCH", storeBenchSeed(b),
				store.Options{Fsync: mode, CompactBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Insert("R", storeBenchRow(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
