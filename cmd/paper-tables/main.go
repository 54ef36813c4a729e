// Command paper-tables regenerates every table of the paper — Tables 1–9 of
// the body and Tables A1–A9 of Appendix A — from the embedded federation and
// diffs each against the expected content. It prints a PASS/FAIL line per
// table (and the full rendered table with -v), exiting non-zero if any table
// diverges. EXPERIMENTS.md § Paper fidelity lists the tables and the two
// places where the expected content corrects the printed one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/tables"
	"repro/internal/translate"
)

func main() {
	verbose := flag.Bool("v", false, "print every regenerated table in full")
	flag.Parse()

	art, err := tables.Compute()
	if err != nil {
		fmt.Fprintf(os.Stderr, "computing artifacts: %v\n", err)
		os.Exit(1)
	}

	failures := 0
	matrix := func(name, expected string, m *translate.Matrix) {
		d := tables.DiffMatrix(expected, m)
		report(name, d, func() string { return m.String() }, *verbose, &failures)
	}
	relation := func(name, expected string, p *core.Relation) {
		d := tables.Diff(expected, p)
		report(name, d, func() string {
			header, rows := tables.RenderRelation(p)
			return header + "\n" + strings.Join(rows, "\n") + "\n"
		}, *verbose, &failures)
	}

	matrix("Table 1  (Polygen Operation Matrix)", tables.Table1, art.POM)
	matrix("Table 2  (half-processed IOM, pass one)", tables.Table2, art.Half)
	matrix("Table 3  (Intermediate Operation Matrix)", tables.Table3, art.IOM)
	relation("Table 4  (ALUMNUS[DEG=\"MBA\"] at AD)", tables.Table4, art.R[1])
	relation("Table 5  (join with CAREER)", tables.Table5, art.R[3])
	relation("Table 6  (Merge of BUSINESS/CORPORATION/FIRM)", tables.Table6, art.R[7])
	relation("Table 7  (join with merged PORGANIZATION)", tables.Table7, art.R[8])
	relation("Table 8  (restrict CEO = ANAME)", tables.Table8, art.R[9])
	relation("Table 9  (final projection)", tables.Table9, art.R[10])
	relation("Table A1 (retrieved BUSINESS)", tables.TableA1, art.A[1])
	relation("Table A2 (retrieved CORPORATION)", tables.TableA2, art.A[2])
	relation("Table A3 (retrieved FIRM, HQ domain-mapped)", tables.TableA3, art.A[3])
	relation("Table A4 (outer join A1 ⋈ A2)", tables.TableA4, art.A[4])
	relation("Table A5 (outer natural primary join)", tables.TableA5, art.A[5])
	relation("Table A6 (outer natural total join)", tables.TableA6, art.A[6])
	relation("Table A7 (outer join A6 ⋈ A3; see EXPERIMENTS.md § Paper fidelity)", tables.TableA7, art.A[7])
	relation("Table A8 (outer natural primary join)", tables.TableA8, art.A[8])
	relation("Table A9 (outer natural total join = Table 6)", tables.TableA9, art.A[9])

	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d table(s) diverged from the paper\n", failures)
		os.Exit(1)
	}
	fmt.Println("all 18 tables match the paper")
}

func report(name, diff string, render func() string, verbose bool, failures *int) {
	status := "PASS"
	if diff != "" {
		status = "FAIL"
		*failures++
	}
	fmt.Printf("%s  %s\n", status, name)
	if verbose {
		for _, line := range strings.Split(strings.TrimRight(render(), "\n"), "\n") {
			fmt.Println("      " + line)
		}
	}
	if diff != "" {
		for _, line := range strings.Split(strings.TrimRight(diff, "\n"), "\n") {
			fmt.Println("      " + line)
		}
	}
}
