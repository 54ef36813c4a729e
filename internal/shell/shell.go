// Package shell implements the interactive front end of cmd/polygen: a
// line-oriented console in the spirit of the System P prototype the paper's
// §V announces. Plain lines are SQL polygen queries; backslash commands
// expose the federation's metadata — the polygen schema, attribute
// mappings, source lineage and the cardinality-inconsistency audit. The
// shell is an ordinary struct over io.Reader/io.Writer so that tests can
// drive it, and it runs over a Backend (backend.go): a local PQP, or — in
// -connect mode — a thin wire session against a polygend mediator.
package shell

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/catalog"
	"repro/internal/identity"
	"repro/internal/pqp"
	"repro/internal/tables"
)

// Shell is one interactive session.
type Shell struct {
	// Backend runs the queries and serves scheme metadata.
	Backend Backend
	// PQP is set for local shells; it enables \audit (with Databases).
	PQP *pqp.PQP
	// Databases, when non-nil, enables \audit.
	Databases map[string]*catalog.Database
	// Resolver is used by \audit; nil means exact matching.
	Resolver identity.Resolver
	// ShowPlan echoes the optimized plan before each answer.
	ShowPlan bool
	// Prompt is printed before each input line (default "polygen> ").
	Prompt string
}

// New returns a shell over an in-process processor.
func New(processor *pqp.PQP) *Shell {
	return &Shell{Backend: NewLocalBackend(processor), PQP: processor, Prompt: "polygen> "}
}

// NewWithBackend returns a shell over any backend (e.g. a RemoteBackend
// against a polygend mediator). \audit is unavailable without catalog
// access.
func NewWithBackend(b Backend) *Shell {
	return &Shell{Backend: b, Prompt: "polygen> "}
}

// Run reads commands from in until EOF or \quit, writing results to out.
// The error is non-nil only for I/O failures; query errors are printed and
// the session continues.
func (s *Shell) Run(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	fmt.Fprint(out, s.Prompt)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if quit := s.Exec(line, out); quit {
				return nil
			}
		}
		fmt.Fprint(out, s.Prompt)
	}
	fmt.Fprintln(out)
	return sc.Err()
}

// Exec runs a single shell line and reports whether the session should end.
func (s *Shell) Exec(line string, out io.Writer) (quit bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(out, "panic: %v\n", r)
		}
	}()
	if strings.HasPrefix(line, `\`) {
		return s.command(line, out)
	}
	if kw := strings.ToLower(firstWord(line)); kw == "quit" || kw == "exit" {
		return true
	}
	if err := s.Query(line, false, out); err != nil {
		fmt.Fprintln(out, err)
	}
	return false
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

func (s *Shell) command(line string, out io.Writer) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\q`, `\quit`:
		return true
	case `\help`, `\h`, `\?`:
		s.help(out)
	case `\schemes`:
		s.schemes(out)
	case `\describe`, `\d`:
		if len(fields) < 2 {
			fmt.Fprintln(out, `usage: \describe SCHEME`)
			break
		}
		s.describe(fields[1], out)
	case `\plan`:
		switch {
		case len(fields) >= 2 && fields[1] == "on":
			s.ShowPlan = true
		case len(fields) >= 2 && fields[1] == "off":
			s.ShowPlan = false
		default:
			fmt.Fprintln(out, `usage: \plan on|off`)
			return false
		}
		fmt.Fprintf(out, "plan display %v\n", map[bool]string{true: "on", false: "off"}[s.ShowPlan])
	case `\alg`:
		rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		if rest == "" {
			fmt.Fprintln(out, `usage: \alg POLYGEN-ALGEBRA-EXPRESSION`)
			break
		}
		if err := s.Query(rest, true, out); err != nil {
			fmt.Fprintln(out, err)
		}
	case `\audit`:
		s.audit(out)
	default:
		fmt.Fprintf(out, "unknown command %s (try \\help)\n", fields[0])
	}
	return false
}

func (s *Shell) help(out io.Writer) {
	fmt.Fprint(out, `commands:
  SELECT ...            run a SQL polygen query
  \alg EXPR             run a polygen algebraic expression
  \schemes              list the polygen schemes
  \describe SCHEME      show a scheme's attribute mappings
  \audit                cardinality-inconsistency report (multi-source attrs)
  \plan on|off          echo the optimized plan before answers
  \quit                 leave
`)
}

func (s *Shell) schemes(out io.Writer) {
	infos, err := s.Backend.Schemes()
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	for _, si := range infos {
		names := make([]string, len(si.Attrs))
		for i, a := range si.Attrs {
			names[i] = a.Name
		}
		fmt.Fprintf(out, "%s(%s) key=%s\n", si.Name, strings.Join(names, ", "), si.Key)
	}
}

func (s *Shell) describe(name string, out io.Writer) {
	infos, err := s.Backend.Schemes()
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	for _, si := range infos {
		if si.Name != name {
			continue
		}
		fmt.Fprintf(out, "%s (key: %s)\n", si.Name, si.Key)
		for _, a := range si.Attrs {
			fmt.Fprintf(out, "  %-14s <- %s\n", a.Name, strings.Join(a.Mapping, ", "))
		}
		return
	}
	fmt.Fprintf(out, "no polygen scheme %q\n", name)
}

func (s *Shell) audit(out io.Writer) {
	if s.Databases == nil || s.PQP == nil {
		fmt.Fprintln(out, `\audit needs direct catalog access (not available over remote LQPs or a mediator)`)
		return
	}
	covs, err := audit.AuditSchema(s.PQP.Schema(), s.Resolver, s.Databases)
	if err != nil {
		fmt.Fprintln(out, err)
		return
	}
	if len(covs) == 0 {
		fmt.Fprintln(out, "no multi-source attributes to audit")
		return
	}
	sort.Slice(covs, func(i, j int) bool { return covs[i].Scheme+covs[i].Attr < covs[j].Scheme+covs[j].Attr })
	for _, c := range covs {
		fmt.Fprint(out, c.String())
	}
}

// Query runs one SQL (or, with algebraic, one algebraic) query and prints
// its answer to out. Unlike Exec, it returns a failed query's error instead
// of printing it, so a one-shot caller can exit non-zero.
func (s *Shell) Query(text string, algebraic bool, out io.Writer) error {
	ans, err := s.Backend.Query(text, algebraic)
	if err != nil {
		return err
	}
	s.printResult(ans, out)
	return nil
}

func (s *Shell) printResult(ans *Answer, out io.Writer) {
	if s.ShowPlan {
		for _, row := range ans.PlanRows {
			fmt.Fprintln(out, "  "+row)
		}
	}
	header, rows := tables.RenderRelation(ans.Relation)
	fmt.Fprintln(out, header)
	for _, r := range rows {
		fmt.Fprintln(out, r)
	}
	fmt.Fprintf(out, "(%d tuples)\n", len(rows))
}
