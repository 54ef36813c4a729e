package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerTrees are the trees whose non-test files count as callers. bench/
// is a nested module of its own, but it drives the program end to end, so
// what it names is used; its own exports are not swept.
var callerTrees = []string{"cmd", "internal", "examples", "bench"}

// unreferencedAllowed lists the exported functions and methods that no
// non-test file names, keyed as the sweep prints them, each with the reason
// it stays.
var unreferencedAllowed = map[string]string{
	// The Ref* oracle: the string-keyed reference operators the property
	// tests of several packages hold the engine to.
	"internal/core.Algebra.RefDifference": "Ref* oracle",
	"internal/core.Algebra.RefIntersect":  "Ref* oracle",
	"internal/core.Algebra.RefJoin":       "Ref* oracle",
	"internal/core.Algebra.RefMerge":      "Ref* oracle",
	"internal/core.Algebra.RefProject":    "Ref* oracle",
	"internal/core.Algebra.RefUnion":      "Ref* oracle",

	// Interface methods the standard library calls.
	"internal/rel.Value.GobEncode":              "implements gob.GobEncoder",
	"internal/rel.Value.GobDecode":              "implements gob.GobDecoder",
	"internal/federation.ExhaustedError.Unwrap": "errors.Is and errors.As reach the cause through it",

	// Candidates of ROADMAP item 6, left to the item that decides each.
	"internal/core.Algebra.SemiJoin":               "item 6: item 16's key-set reduction may call it",
	"internal/core.Schema.CellLineage":             "item 6: lineage.go gets a shell command or goes",
	"internal/stats.Catalog.SetLatency":            "item 6: item 18 decides whether a plan cost reads latency",
	"internal/stats.Catalog.TransferCost":          "item 6: item 18 decides whether a plan cost reads latency",
	"internal/federation.ShardedSource.ShardCount": "item 6 candidate",
	"internal/store.Unregister":                    "item 6 candidate",
	"internal/faultinject.NewFlipReader":           "item 6 candidate",
	"internal/catalog.Database.WriteCSV":           "item 6 candidate",
	"internal/pqp.PQP.Execute":                     "item 6: becomes a test helper beside pqp's counting",

	// API that only tests reach, found by this sweep beyond item 6's list;
	// ROADMAP item 6 carries them as further candidates.
	"internal/core.Algebra.Difference":                "materialized Difference; pqp runs StreamDifference",
	"internal/core.Algebra.Intersect":                 "materialized Intersection; pqp runs StreamIntersect",
	"internal/translate.Interpret":                    "Figure 2's POI in one call; the compiler calls PassOne and PassTwo",
	"internal/identity.NewSynonyms":                   "the Synonyms resolver's constructor; no command takes a synonym table",
	"internal/catalog.Database.WriteSnapshot":         "io.Writer form of EncodeSnapshot",
	"internal/store.Store.Compact":                    "forces a generation roll; the store's own roll is unexported",
	"internal/store.Store.CreateRelation":             "durable DDL; lqpd seeds its relations through Open",
	"internal/domainmap.Chain":                        "domain-mapping combinator no federation composes",
	"internal/domainmap.Scale":                        "domain-mapping combinator no federation uses",
	"internal/rel.Relation.MustAppend":                "fixture helper",
	"internal/sqlparse.MustParse":                     "fixture helper",
	"internal/translate.MustParseExpr":                "fixture helper",
	"internal/faultinject.IsInjected":                 "fault-suite helper",
	"internal/federation.Report.Degraded":             "degradation-suite helper",
	"internal/workload.Drive":                         "load driver of the soak and serve suites",
	"internal/workload.Federation.TaggedFragments":    "workload-suite helper",
	"internal/workload.NewReplicatedStar":             "chaos-suite federation",
	"internal/workload.ReplicatedStar.InjectedFaults": "chaos-suite counters",
	"internal/workload.NewShardedStar":                "chaos-suite federation",
	"internal/workload.ShardedStar.InjectedFaults":    "chaos-suite counters",
}

// TestNoUnreferencedExports is a rerunnable unreferenced-export sweep: it
// parses every non-test file under callerTrees and fails on an exported
// function or method whose name no non-test file uses, unless
// unreferencedAllowed lists it. The match is by name, not by type, so a
// method called through an interface counts as used wherever any method of
// that name is called; an allowlist entry that is used again, or gone, is
// reported too, so the list cannot go stale. Run it alone with
//
//	go test -run TestNoUnreferencedExports .
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]string{} // sweep key -> function or method name
	used := map[string]bool{}
	for _, tree := range callerTrees {
		err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			names := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					names[fn.Name] = true
					if fn.Name.IsExported() && tree != "bench" {
						declared[sweepKey(filepath.ToSlash(filepath.Dir(path)), fn)] = fn.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !names[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for key, name := range declared {
		if !used[name] {
			if _, ok := unreferencedAllowed[key]; !ok {
				unused = append(unused, key)
			}
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported, but no non-test file under %v names it", key, callerTrees)
	}
	for key := range unreferencedAllowed {
		if name, ok := declared[key]; !ok {
			t.Errorf("allowlisted %s no longer exists; drop its entry", key)
		} else if used[name] {
			t.Errorf("allowlisted %s is named by non-test code now; drop its entry", key)
		}
	}
}

// sweepKey names a function as dir.Func and a method as dir.Type.Method.
func sweepKey(dir string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return dir + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
			continue
		case *ast.IndexExpr:
			typ = x.X
			continue
		case *ast.IndexListExpr:
			typ = x.X
			continue
		}
		break
	}
	recv := "?"
	if id, ok := typ.(*ast.Ident); ok {
		recv = id.Name
	}
	return dir + "." + recv + "." + fn.Name.Name
}
