package pqp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/domainmap"
	"repro/internal/identity"
	"repro/internal/lqp"
	"repro/internal/paperdata"
	"repro/internal/rel"
	"repro/internal/translate"
	"repro/internal/wire"
)

func newPQP(t *testing.T) *PQP {
	t.Helper()
	fed := paperdata.New()
	return New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
}

func TestQueryAlgebraPaperExpression(t *testing.T) {
	q := newPQP(t)
	res, err := q.QueryAlgebra(`( ( ( ( PALUMNUS [DEGREE = "MBA"] ) [AID#=AID#] PCAREER) [ONAME = ONAME] PORGANIZATION) [CEO = ANAME ] ) [ONAME, CEO]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 3 {
		t.Errorf("result cardinality = %d, want 3", res.Relation.Cardinality())
	}
	if res.POM.Cardinality() != 5 || res.Half.Cardinality() != 5 || res.IOM.Cardinality() != 10 {
		t.Errorf("pipeline shapes: POM=%d Half=%d IOM=%d", res.POM.Cardinality(), res.Half.Cardinality(), res.IOM.Cardinality())
	}
}

func TestQuerySQLSimpleSelect(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 5 {
		t.Errorf("cardinality = %d, want 5", res.Relation.Cardinality())
	}
	// The Select pushed down to the AD LQP, so — exactly as in Table 4 —
	// origins are {AD} and the intermediate sets stay empty (the tagging
	// happens after local execution).
	for _, tu := range res.Relation.Tuples {
		if tu[0].Format(q.Registry()) != tu[0].D.String()+", {AD}, {}" {
			t.Errorf("cell = %s", tu[0].Format(q.Registry()))
		}
	}
}

func TestQuerySQLAggregatedFinance(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT ONAME, PROFIT FROM PFINANCE WHERE YEAR = 1989`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 10 {
		t.Errorf("cardinality = %d, want 10", res.Relation.Cardinality())
	}
}

func TestTraceCallback(t *testing.T) {
	q := newPQP(t)
	var lines []string
	q.Trace = func(format string, args ...any) {
		lines = append(lines, format)
		_ = args
	}
	if _, err := q.QuerySQL(`SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA"`); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("trace callback never invoked")
	}
}

func TestOptimizeToggle(t *testing.T) {
	q := newPQP(t)
	q.Optimize = false
	res, err := q.QuerySQL(`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != res.IOM {
		t.Error("with Optimize=false the plan must be the raw IOM")
	}
	q.Optimize = true
	res2, err := q.QuerySQL(`SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = "Banking"`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(res2.Relation), render(res.Relation); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("optimizer changed the answer:\n%v\nvs\n%v", got, want)
	}
}

func render(p *core.Relation) []string {
	out := make([]string, 0, len(p.Tuples))
	for _, t := range p.Tuples {
		parts := make([]string, len(t))
		for i, c := range t {
			parts[i] = c.Format(p.Reg)
		}
		out = append(out, strings.Join(parts, " | "))
	}
	return out
}

func TestMergedSchemeQuery(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"`)
	if err != nil {
		t.Fatal(err)
	}
	rows := render(res.Relation)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// CitiCorp is the only Banking organization; its CEO came from CD with
	// AD and PD as intermediates (they supplied the INDUSTRY evidence).
	if !strings.Contains(rows[0], "CitiCorp, {AD, PD, CD}, {AD, PD, CD}") {
		t.Errorf("row = %s", rows[0])
	}
	if !strings.Contains(rows[0], "John Reed, {CD}, {AD, PD, CD}") {
		t.Errorf("row = %s", rows[0])
	}
}

func TestSetOperationsEndToEnd(t *testing.T) {
	q := newPQP(t)
	res, err := q.QueryAlgebra(`(PALUMNUS [DEGREE = "MBA"]) UNION (PALUMNUS [DEGREE = "MS"])`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 6 { // 5 MBA + 1 MS
		t.Errorf("cardinality = %d, want 6", res.Relation.Cardinality())
	}
	res2, err := q.QueryAlgebra(`(PALUMNUS) MINUS (PALUMNUS [DEGREE = "MBA"])`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Relation.Cardinality() != 3 { // BS, SF, MS alumni
		t.Errorf("difference cardinality = %d, want 3", res2.Relation.Cardinality())
	}
	res3, err := q.QueryAlgebra(`(PALUMNUS) INTERSECT (PALUMNUS [DEGREE = "MBA"])`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Relation.Cardinality() != 5 {
		t.Errorf("intersect cardinality = %d, want 5", res3.Relation.Cardinality())
	}
}

func TestExecuteErrors(t *testing.T) {
	q := newPQP(t)
	if _, err := q.Execute(&translate.Matrix{}); err == nil {
		t.Error("empty plan accepted")
	}
	// Unknown execution location.
	bad := &translate.Matrix{Rows: []translate.Row{{
		PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("X"),
		RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "NOPE",
	}}}
	if _, err := q.Execute(bad); err == nil {
		t.Error("unknown LQP accepted")
	}
	// Register referenced before computation.
	bad2 := &translate.Matrix{Rows: []translate.Row{{
		PR: 1, Op: translate.OpProject, LHR: translate.RegOperand(9),
		LHA: []string{"A"}, RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP",
	}}}
	if _, err := q.Execute(bad2); err == nil {
		t.Error("dangling register accepted")
	}
	// Merge without a scheme annotation.
	bad3 := &translate.Matrix{Rows: []translate.Row{
		{PR: 1, Op: translate.OpRetrieve, LHR: translate.LocalOperand("ALUMNUS"), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD"},
		{PR: 2, Op: translate.OpMerge, LHR: translate.RegsOperand(1), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "PQP", Scheme: "NOPE"},
	}}
	if _, err := q.Execute(bad3); err == nil {
		t.Error("merge with unknown scheme accepted")
	}
	// Local row with non-local operand.
	bad4 := &translate.Matrix{Rows: []translate.Row{{
		PR: 1, Op: translate.OpRetrieve, LHR: translate.RegOperand(1),
		RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: "AD",
	}}}
	if _, err := q.Execute(bad4); err == nil {
		t.Error("local row with register operand accepted")
	}
}

func TestQuerySQLParseErrorPropagates(t *testing.T) {
	q := newPQP(t)
	if _, err := q.QuerySQL("SELECT FROM"); err == nil {
		t.Error("parse error swallowed")
	}
	if _, err := q.QueryAlgebra("((("); err == nil {
		t.Error("algebra parse error swallowed")
	}
}

// TestRemoteLQPEndToEnd runs the full paper query against LQPs served over
// TCP — Figure 1 with real sockets.
func TestRemoteLQPEndToEnd(t *testing.T) {
	fed := paperdata.New()
	lqps := make(map[string]lqp.LQP, 3)
	for _, db := range fed.Databases() {
		srv := wire.NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		lqps[client.Name()] = client
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	res, err := q.QuerySQL(`SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN
		(SELECT ONAME FROM PCAREER WHERE AID# IN
		(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))`)
	if err != nil {
		t.Fatal(err)
	}
	rows := render(res.Relation)
	if len(rows) != 3 {
		t.Fatalf("remote result = %v", rows)
	}
	for _, want := range []string{
		"Genentech, {AD, CD}, {AD, CD} | Bob Swanson, {CD}, {AD, CD}",
		"Langley Castle, {AD, CD}, {AD, CD} | Stu Madnick, {CD}, {AD, CD}",
		"Citicorp, {AD, PD, CD}, {AD, PD, CD} | John Reed, {CD}, {AD, PD, CD}",
	} {
		found := false
		for _, r := range rows {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing row %q in %v", want, rows)
		}
	}
}

// retrievePlan is the one-row plan retrieving relation name at db.
func retrievePlan(db, name string) *translate.Matrix {
	return &translate.Matrix{Rows: []translate.Row{{PR: 1, Op: translate.OpRetrieve,
		LHR: translate.LocalOperand(name), RHA: translate.NoComparand(), RHR: translate.NoOperand(), EL: db}}}
}

// TestTagRetrievedAnnotations: retrieved columns carry the polygen
// attributes the schema maps and the execution location as origin.
func TestTagRetrievedAnnotations(t *testing.T) {
	q := newPQP(t)
	p, err := q.Execute(retrievePlan("AD", "CAREER"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Attrs[1].Polygen != "ONAME" || p.Attrs[2].Polygen != "POSITION" {
		t.Errorf("annotations = %+v", p.Attrs)
	}
	if p.Cardinality() == 0 {
		t.Fatal("CAREER retrieved empty")
	}
	for _, tu := range p.Tuples {
		for _, c := range tu {
			if got, want := c.Format(q.Registry()), c.D.String()+", {AD}, {}"; got != want {
				t.Fatalf("cell = %s, want %s", got, want)
			}
		}
	}
}

// TestTagRetrievedAppliesDomainMap: FIRM.HQ maps to its state at retrieval.
func TestTagRetrievedAppliesDomainMap(t *testing.T) {
	q := newPQP(t)
	p, err := q.Execute(retrievePlan("CD", "FIRM"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range p.Tuples {
		if tu[0].D.String() == "Langley Castle" {
			if got := tu[2].D.String(); got != "MA" {
				t.Errorf("HQ = %q, want MA", got)
			}
			return
		}
	}
	t.Fatalf("Langley Castle not retrieved: %v", render(p))
}

// TestSelectStarSingleSource: a bare SELECT * over a single-source scheme
// becomes one Retrieve at the owning LQP.
func TestSelectStarSingleSource(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT * FROM PALUMNUS`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 8 || res.Relation.Degree() != 4 {
		t.Errorf("shape = %dx%d, want 8x4", res.Relation.Cardinality(), res.Relation.Degree())
	}
	if res.Plan.Cardinality() != 1 {
		t.Errorf("plan:\n%s", res.Plan)
	}
}

// TestSelectStarMultiSource: SELECT * over PORGANIZATION retrieves all
// three local relations and merges them — the answer is Table 6.
func TestSelectStarMultiSource(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT * FROM PORGANIZATION`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 12 || res.Relation.Degree() != 4 {
		t.Errorf("shape = %dx%d, want 12x4", res.Relation.Cardinality(), res.Relation.Degree())
	}
	names := res.Relation.AttrNames()
	want := []string{"ONAME", "INDUSTRY", "HEADQUARTERS", "CEO"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

// TestSelectionPushdown uses counting LQPs to verify the data-driven
// translation routes work as Table 3 prescribes: AD receives the Select plus
// two Retrieves (CAREER, BUSINESS), PD and CD one Retrieve each, and no LQP
// ever ships ALUMNUS wholesale when a selection can run locally. With
// statistics collected, column demand reaches through the joins and the
// Merge: every source ships only the columns the answer observes — CAREER
// arrives as a narrowed Project(AID#, BNAME), each ORGANIZATION fragment as
// its key (plus CEO at CD) — and the answer is unchanged.
func TestSelectionPushdown(t *testing.T) {
	fed := paperdata.New()
	counters := make(map[string]*counting, 3)
	lqps := make(map[string]lqp.LQP, 3)
	for name, l := range fed.LQPs() {
		c := newCounting(l)
		counters[name] = c
		lqps[name] = c
	}
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	query := `SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN
		(SELECT ONAME FROM PCAREER WHERE AID# IN
		(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))`
	want, err := q.QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	ad := counters["AD"]
	if ops := ad.Ops(); opCount(ops, lqp.OpSelect) != 1 || opCount(ops, lqp.OpRetrieve) != 2 || len(ops) != 3 {
		t.Errorf("AD ops = %v", ops)
	}
	for _, op := range ad.Ops() {
		if op.Kind == lqp.OpRetrieve && op.Relation == "ALUMNUS" {
			t.Error("ALUMNUS retrieved wholesale despite a local selection")
		}
	}
	for _, db := range []string{"PD", "CD"} {
		if ops := counters[db].Ops(); len(ops) != 1 || ops[0].Kind != lqp.OpRetrieve {
			t.Errorf("%s ops = %v", db, ops)
		}
	}

	if err := q.CollectStats(); err != nil {
		t.Fatal(err)
	}
	for _, c := range counters {
		c.Reset()
	}
	got, err := q.QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	diffRows(t, "narrowed plan\n"+got.Plan.String(), renderSorted(got.Relation), renderSorted(want.Relation))
	for db, wantOps := range map[string]string{
		"AD": `[ALUMNUS[DEG = "MBA"] BUSINESS[BNAME] CAREER[AID# BNAME]]`,
		"PD": `[CORPORATION[CNAME]]`,
		"CD": `[FIRM[CEO FNAME]]`,
	} {
		ops := make([]string, 0, 3)
		for _, op := range counters[db].Ops() {
			ops = append(ops, op.String())
		}
		sort.Strings(ops)
		if fmt.Sprint(ops) != wantOps {
			t.Errorf("%s ops with statistics = %v, want %s", db, ops, wantOps)
		}
	}
	for _, op := range ad.Ops() {
		if op.Relation == "ALUMNUS" && op.Kind != lqp.OpSelect {
			t.Error("ALUMNUS retrieved wholesale despite a local selection")
		}
	}
}

// TestCountingReset covers the wrapper's bookkeeping.
func TestCountingReset(t *testing.T) {
	fed := paperdata.New()
	c := newCounting(lqp.NewLocal(fed.AD))
	cur, err := c.Open(lqp.Retrieve("ALUMNUS"))
	if err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if ops := c.Ops(); len(ops) != 1 || ops[0].Kind != lqp.OpRetrieve {
		t.Errorf("ops = %v", ops)
	}
	if c.Name() != "AD" {
		t.Error("name not forwarded")
	}
	if rels, err := c.Relations(); err != nil || len(rels) != 3 {
		t.Error("relations not forwarded")
	}
	c.Reset()
	if len(c.Ops()) != 0 || c.CellsTransferred() != 0 {
		t.Error("reset did not clear")
	}
}

// TestDomainMappedSelection: a selection on a domain-mapped attribute is
// evaluated at the PQP on mapped values, not at the LQP on raw strings
// (examples/finance's scenario, reduced).
func TestDomainMappedSelection(t *testing.T) {
	fed := paperdata.New()
	fed.Schema.DomainMap.Set(paperdata.CD, "FINANCE", "PROFIT",
		domainmap.UnitSuffix(map[string]float64{"bil": 1e9, "mil": 1e6}))
	q := New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
	res, err := q.QuerySQL(`SELECT ONAME, PROFIT FROM PFINANCE WHERE PROFIT > 1000000000`)
	if err != nil {
		t.Fatal(err)
	}
	// CitiCorp 1.7B, Ford 5.3B, IBM 5.5B, DEC 1.3B (AT&T's -1.7B excluded).
	if res.Relation.Cardinality() != 4 {
		t.Fatalf("rows = %v", render(res.Relation))
	}
	for _, tu := range res.Relation.Tuples {
		if tu[1].D.Kind() != rel.KindFloat || tu[1].D.FloatVal() <= 1e9 {
			t.Errorf("bad PROFIT %v", tu[1].D)
		}
	}
}

// TestStudentFloatQuery exercises the PSTUDENT scheme with float GPAs.
func TestStudentFloatQuery(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT SNAME, GPA FROM PSTUDENT WHERE GPA >= 3.5`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.Cardinality() != 4 { // 3.5, 3.99, 3.6, 3.7
		t.Errorf("rows = %v", render(res.Relation))
	}
}

// TestInterviewJoinsOrganizations: students interviewing at organizations
// headquartered in NY — joins PINTERVIEW (PD) against the merged
// PORGANIZATION and PSTUDENT, a query shape the paper's schema supports but
// never demonstrates.
func TestInterviewJoinsOrganizations(t *testing.T) {
	q := newPQP(t)
	res, err := q.QuerySQL(`SELECT SNAME, ONAME, HEADQUARTERS FROM PSTUDENT, PINTERVIEW, PORGANIZATION
		WHERE SID# = SID# AND ONAME = ONAME AND HEADQUARTERS = "NY"`)
	if err != nil {
		t.Fatal(err)
	}
	rows := render(res.Relation)
	// IBM (01 Forea Wang), Banker's Trust (23 Rich Bolsky), Citicorp
	// (34 John Smith) are NY-headquartered; Oracle (CA) is not.
	if len(rows) != 3 {
		t.Fatalf("rows = %v\nplan:\n%s", rows, res.Plan)
	}
	for _, r := range rows {
		if strings.Contains(r, "Oracle") {
			t.Errorf("CA organization leaked: %s", r)
		}
	}
}
