package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported funcs, methods and types under internal/
// that no non-test file of the module names and that stay anyway, each
// with its reason — almost always that it is the reference a test
// compares production code against. An entry for a type covers the
// type's methods. Everything else exported under internal/ must have a
// caller: TestExportsHaveCallers fails on an uncalled export missing
// here, and on an entry here that has gained a caller or lost its
// declaration.
var keptExports = map[string]string{
	"internal/arrow.VerifySinkReachability": "the one-sink pointer invariant the arrow and runtime tests assert at quiescence",
	"internal/graph.Graph.ShortestPath":     "one shortest path, the reference every weighted MetricTopology hop count is checked against (TestMetricTopologyHopsMatchShortestPath)",
	"internal/ivy.Directory":                "Li–Hudak's sequential pointer-chain model, the oracle shard.Reversal's chains are held against (TestReversalMatchesDirectory)",
	"internal/ivy.NewDirectory":             "constructor of that Directory oracle",
	"internal/lint.NewLoader":               "loads the analyzer fixtures under testdata/src for the harness tests; TestRepoClean loads the repo through go list instead",
	"internal/opt.DistOfTree":               "dT as a DistFunc: the tests' reference for arrow's cost cA and the tree stretch",
	"internal/queuing.CA":                   "eq. (1)'s arrow cost cA, the reference arrow's measured latency is compared with",
	"internal/sim.LinkChurn":                "tree-link outage plans for the engine, shard-golden, arrow and sim fault tests",
	"internal/sim.TreeLinks":                "the candidate link set those LinkChurn plans are drawn over",
	"internal/stats.Histogram.Buckets":      "pins the histogram's bounded-memory property",
	"internal/tree.Walker.Depth":            "hop depth, the round-trip length sim's token-protocol tests record",
	"internal/tree.Tree.ToGraph":            "the tree as a graph, so tests compare dT with graph shortest paths",
}

// implicitMethods are called through standard-library interfaces (fmt,
// error, sort and container/heap), never by name.
var implicitMethods = map[string]bool{
	"String": true, "Error": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// moduleFile is one parsed non-test .go file of the module, with its
// directory relative to the module root ("internal/sim", "cmd/arrowbench").
type moduleFile struct {
	dir string
	f   *ast.File
}

// parseModule parses every non-test .go file of the module rooted at root
// — the root package, cmd/, examples/, internal/ and the nested bench/
// module; testdata trees and hidden directories are not part of it.
func parseModule(root string) ([]moduleFile, error) {
	fset := token.NewFileSet()
	var files []moduleFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, moduleFile{dir: filepath.ToSlash(rel), f: f})
		return nil
	})
	return files, err
}

// uncalledExports returns the exported funcs, methods and types declared
// under internal/ whose name no identifier of the module's non-test files
// (see parseModule) spells outside a declaration's own name. Matching is
// by name alone, no type checker: a method counts as called when any
// selector or identifier anywhere has its name, which also covers a
// method only ever reached through an interface the repo declares. Keys
// read "internal/pkg.Func", "internal/pkg.Type" and
// "internal/pkg.Type.Method".
func uncalledExports(root string) ([]string, error) {
	files, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	declared := map[string]*ast.Ident{}
	for _, mf := range files {
		if !strings.HasPrefix(mf.dir, "internal/") {
			continue
		}
		for _, decl := range mf.f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if !decl.Name.IsExported() {
					continue
				}
				key := mf.dir + "." + decl.Name.Name
				if decl.Recv != nil {
					if implicitMethods[decl.Name.Name] {
						continue
					}
					key = mf.dir + "." + receiverName(decl.Recv.List[0].Type) + "." + decl.Name.Name
				}
				declared[key] = decl.Name
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						declared[mf.dir+"."+ts.Name.Name] = ts.Name
					}
				}
			}
		}
	}
	declaring := map[*ast.Ident]bool{}
	for _, id := range declared {
		declaring[id] = true
	}
	named := map[string]bool{}
	for _, mf := range files {
		ast.Inspect(mf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	var uncalled []string
	for key, id := range declared {
		if !named[id.Name] {
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	return uncalled, nil
}

// receiverName returns the type name of a method receiver, through a
// pointer and type parameters.
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// checkExportsHaveCallers compares the module's uncalled exports with the
// table of kept ones.
func checkExportsHaveCallers(root string, kept map[string]string) error {
	uncalled, err := uncalledExports(root)
	if err != nil {
		return err
	}
	var msgs []string
	used := map[string]bool{}
	for _, key := range uncalled {
		entry := key
		if _, ok := kept[entry]; !ok && strings.Count(key, ".") == 2 {
			entry = key[:strings.LastIndexByte(key, '.')] // a method: its type's entry
		}
		if _, ok := kept[entry]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s is exported but no non-test file names it: delete it, unexport it, or give it a reason in keptExports", key))
		}
		used[entry] = true
	}
	for key := range kept {
		if !used[key] {
			msgs = append(msgs, fmt.Sprintf("keptExports entry %s is stale: it has a caller now, or is no longer declared", key))
		}
	}
	if len(msgs) > 0 {
		sort.Strings(msgs)
		return fmt.Errorf("exports without callers:\n  %s", strings.Join(msgs, "\n  "))
	}
	return nil
}

// TestExportsHaveCallers pins the table to the repo as committed.
func TestExportsHaveCallers(t *testing.T) {
	if err := checkExportsHaveCallers(filepath.Join("..", ".."), keptExports); err != nil {
		t.Fatal(err)
	}
}

// TestExportsHaveCallersFindsGaps runs the check over scratch modules, one
// per way the table and the tree can drift apart.
func TestExportsHaveCallersFindsGaps(t *testing.T) {
	kept := map[string]string{
		"internal/p.Oracle": "reference model",
		"internal/p.Check":  "its check",
	}
	clean := map[string]string{
		"internal/p/p.go":              "package p\n\nfunc Used() {}\n\nfunc Check() {}\n\ntype Oracle struct{}\n\nfunc (*Oracle) Step() {}\n\nfunc (Oracle) String() string { return \"\" }\n\nfunc ViaBench() {}\n\nfunc unexported() { var _ Oracle }\n",
		"cmd/tool/main.go":             "package main\n\nimport \"m/internal/p\"\n\nfunc main() { p.Used() }\n",
		"bench/go.mod":                 "module m/bench\n",
		"bench/main.go":                "package main\n\nimport \"m/internal/p\"\n\nfunc main() { p.ViaBench() }\n",
		"internal/p/p_test.go":         "package p\n\nfunc helper() { Check() }\n",
		"internal/p/testdata/fix/f.go": "package fix\n\nfunc Fixture() {}\n",
	}
	cases := []struct {
		name   string
		change map[string]string
		want   string // "" = the check passes
	}{
		{"clean", nil, ""},
		{"export named only by a test", map[string]string{"internal/q/q.go": "package q\n\nfunc Lonely() {}\n", "internal/q/q_test.go": "package q\n\nfunc helper() { Lonely() }\n"}, "internal/q.Lonely is exported but no non-test file names it"},
		{"method of an unlisted type", map[string]string{"internal/q/q.go": "package q\n\ntype T struct{}\n\nvar _ T\n\nfunc (T) Peek() {}\n"}, "internal/q.T.Peek is exported"},
		{"kept export gained a caller", map[string]string{"cmd/tool/main.go": "package main\n\nimport \"m/internal/p\"\n\nfunc main() { p.Used(); p.Check() }\n"}, "keptExports entry internal/p.Check is stale"},
		{"kept export no longer declared", map[string]string{"internal/p/p.go": "package p\n\nfunc Used() {}\n\nfunc Check() {}\n\nfunc ViaBench() {}\n"}, "keptExports entry internal/p.Oracle is stale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkExportsHaveCallers(writeTree(t, clean, c.change), kept)
			if c.want == "" {
				if err != nil {
					t.Fatalf("clean tree flagged: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not contain %q", err, c.want)
			}
		})
	}
}
