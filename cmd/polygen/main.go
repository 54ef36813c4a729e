// Command polygen runs polygen queries — SQL or algebraic — against the
// paper's federation (the Alumni, Placement and Company databases of §IV)
// and prints the composite answer with its data and intermediate source
// tags.
//
// Usage:
//
//	polygen -sql 'SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE ...'
//	polygen -alg '( PALUMNUS [DEGREE = "MBA"] ) [ANAME]'
//	polygen                      # interactive: one SQL query per line
//
// Flags:
//
//	-plan   print the POM, half-processed IOM and IOM before the answer
//	-trace  print each executed plan row with its result cardinality
//	-remote addr1,addr2,...      use remote LQPs (see cmd/lqpd) instead of
//	        the in-process federation
//	-connect addr                thin-client mode: run everything on a
//	        polygend mediator (see cmd/polygend); the REPL only parses
//	        backslash commands and renders answers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cmdutil"
	"repro/internal/identity"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/shell"
	"repro/internal/tables"
	"repro/internal/wire"
)

func main() {
	sql := flag.String("sql", "", "polygen SQL query to run")
	alg := flag.String("alg", "", "polygen algebraic expression to run")
	plan := flag.Bool("plan", false, "print translation matrices before the answer")
	trace := flag.Bool("trace", false, "trace plan execution")
	remote := flag.String("remote", "", "comma-separated lqpd addresses to use instead of in-process LQPs")
	connect := flag.String("connect", "", "polygend mediator address: run queries remotely as a thin client")
	flag.Parse()

	if *connect != "" {
		runRemote(*connect, *sql, *alg, *plan)
		return
	}

	fed := paperdata.New()
	lqps := fed.LQPs()
	if *remote != "" {
		var closeLQPs func()
		lqps, closeLQPs = cmdutil.DialLQPs(*remote, "polygen")
		defer closeLQPs()
	}
	processor := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, lqps)
	if *trace {
		processor.Trace = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	switch {
	case *sql != "":
		run(processor, *sql, false, *plan)
	case *alg != "":
		run(processor, *alg, true, *plan)
	default:
		repl(processor, fed, *plan, *remote != "")
	}
}

// runRemote is the thin-client mode: a wire session against a polygend
// mediator runs the queries; this process only renders answers.
func runRemote(addr, sql, alg string, plan bool) {
	client, err := wire.Dial(addr)
	if err != nil {
		fatal("dialing mediator %s: %v", addr, err)
	}
	defer client.Close()
	backend, err := shell.NewRemoteBackend(client)
	if err != nil {
		fatal("%v", err)
	}
	defer backend.Close()
	sh := shell.NewWithBackend(backend)
	sh.ShowPlan = plan
	switch {
	case sql != "":
		err = sh.Query(sql, false, os.Stdout)
	case alg != "":
		err = sh.Query(alg, true, os.Stdout)
	default:
		fmt.Printf("connected to federation %q at %s (session %s)\n",
			backend.Federation(), addr, backend.Session())
		fmt.Println(`enter SQL or \help:`)
		err = sh.Run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fatal("%v", err)
	}
}

func run(processor *pqp.PQP, query string, algebraic, plan bool) {
	var res *pqp.Result
	var err error
	if algebraic {
		res, err = processor.QueryAlgebra(query)
	} else {
		res, err = processor.QuerySQL(query)
	}
	if err != nil {
		fatal("%v", err)
	}
	if plan {
		fmt.Println("Polygen algebraic expression:")
		fmt.Println("  " + res.Expr.String())
		fmt.Println("\nPolygen Operation Matrix:")
		fmt.Print(indent(res.POM.String()))
		fmt.Println("\nHalf-processed IOM (pass one):")
		fmt.Print(indent(res.Half.String()))
		fmt.Println("\nIntermediate Operation Matrix (pass two):")
		fmt.Print(indent(res.IOM.String()))
		if res.Plan.String() != res.IOM.String() {
			fmt.Println("\nOptimized plan:")
			fmt.Print(indent(res.Plan.String()))
		}
		fmt.Println()
	}
	header, rows := tables.RenderRelation(res.Relation)
	fmt.Println(header)
	fmt.Println(strings.Repeat("-", len(header)))
	for _, r := range rows {
		fmt.Println(r)
	}
	fmt.Printf("(%d tuples)\n", len(rows))
}

func repl(processor *pqp.PQP, fed *paperdata.Federation, plan bool, remote bool) {
	fmt.Println("polygen federation: AD (Alumni), PD (Placement), CD (Company)")
	fmt.Println("schemes:", strings.Join(processor.Schema().SchemeNames(), ", "))
	fmt.Println(`enter SQL or \help:`)
	sh := shell.New(processor)
	sh.ShowPlan = plan
	sh.Resolver = identity.CaseFold{}
	if !remote {
		sh.Databases = map[string]*catalog.Database{
			paperdata.AD: fed.AD, paperdata.PD: fed.PD, paperdata.CD: fed.CD,
		}
	}
	if err := sh.Run(os.Stdin, os.Stdout); err != nil {
		fatal("%v", err)
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func fatal(format string, args ...any) { cmdutil.Fatal(format, args...) }
