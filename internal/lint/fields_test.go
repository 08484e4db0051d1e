package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptFields are the exported struct fields under internal/ that no
// non-test file of the module sets and that stay anyway, each with its
// reason. Every other exported field under internal/ must have a setter:
// a field only tests set is a knob no run turns, and every run already
// uses its zero value. TestFieldsHaveSetters fails on an unset field
// missing here, and on an entry here that has gained a setter or lost
// its declaration.
var keptFields = map[string]string{
	"internal/sim.FaultPlan.Policy":       "FaultQueue is pinned by two internal/shard golden cases and six fault tests; removing it moves goldens",
	"internal/sim.DrainStats.WindowWidth": "bench/ compiles against it (the drain-parallel metrics) until the benchmark PR, ROADMAP item 1",
	"internal/sim.DrainStats.Windows":     "as DrainStats.WindowWidth",
	"internal/sim.DrainStats.BatchEvents": "as DrainStats.WindowWidth",
	"internal/sim.DirectTopology.G":       "bench/ compiles against DirectTopology until the benchmark PR, ROADMAP item 1",
}

// unsetFields returns the exported fields of the struct types declared
// in non-test files under internal/ whose name no non-test file of the
// module (see parseModule) sets. A set is a composite-literal key
// (T{F: v}) or an assignment or increment of a selector (x.F = v,
// x.F += v, x.F++). Copying a same-named field (T{F: y.F}, x.F = y.F)
// does not count: it forwards a value, so the field is set only if the
// one it copies is. Like uncalledExports, matching is by name alone: a
// set of any field named F counts for every field named F. Keys read
// "internal/pkg.Type.Field".
func unsetFields(root string) ([]string, error) {
	files, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	declared := map[string]string{} // key -> field name
	for _, mf := range files {
		if !strings.HasPrefix(mf.dir, "internal/") {
			continue
		}
		for _, decl := range mf.f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							declared[mf.dir+"."+ts.Name.Name+"."+name.Name] = name.Name
						}
					}
				}
			}
		}
	}
	// copies reports whether v reads a field of the same name.
	copies := func(name string, v ast.Expr) bool {
		sel, ok := v.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == name
	}
	set := map[string]bool{}
	for _, mf := range files {
		ast.Inspect(mf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && !copies(key.Name, n.Value) {
					set[key.Name] = true
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if len(n.Rhs) == len(n.Lhs) && copies(sel.Sel.Name, n.Rhs[i]) {
						continue
					}
					set[sel.Sel.Name] = true
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					set[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var unset []string
	for key, name := range declared {
		if !set[name] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	return unset, nil
}

// checkFieldsHaveSetters compares the module's unset fields with the
// table of kept ones.
func checkFieldsHaveSetters(root string, kept map[string]string) error {
	unset, err := unsetFields(root)
	if err != nil {
		return err
	}
	var msgs []string
	used := map[string]bool{}
	for _, key := range unset {
		if _, ok := kept[key]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s is exported but no non-test file sets it: make it a constant, delete it, or give it a reason in keptFields", key))
		}
		used[key] = true
	}
	for key := range kept {
		if !used[key] {
			msgs = append(msgs, fmt.Sprintf("keptFields entry %s is stale: it has a setter now, or is no longer declared", key))
		}
	}
	if len(msgs) > 0 {
		sort.Strings(msgs)
		return fmt.Errorf("fields without setters:\n  %s", strings.Join(msgs, "\n  "))
	}
	return nil
}

// TestFieldsHaveSetters pins the table to the repo as committed.
func TestFieldsHaveSetters(t *testing.T) {
	if err := checkFieldsHaveSetters(filepath.Join("..", ".."), keptFields); err != nil {
		t.Fatal(err)
	}
}

// TestFieldsHaveSettersFindsGaps runs the check over scratch modules, one
// per way the table and the tree can drift apart.
func TestFieldsHaveSettersFindsGaps(t *testing.T) {
	kept := map[string]string{"internal/p.Config.Legacy": "kept for a reason"}
	clean := map[string]string{
		"internal/p/p.go":      "package p\n\ntype Config struct {\n\tA, B   int\n\tC      int\n\tD      int\n\tLegacy int\n\tinner  int\n}\n\nfunc Normalize(c Config) Config {\n\tc.B = max(c.B, 1)\n\tc.C++\n\treturn c\n}\n",
		"cmd/tool/main.go":     "package main\n\nimport \"m/internal/p\"\n\nfunc main() { _ = p.Config{A: 1} }\n",
		"bench/go.mod":         "module m/bench\n",
		"bench/main.go":        "package main\n\nimport \"m/internal/p\"\n\nfunc main() { var c p.Config; c.D = 2; _ = c }\n",
		"internal/p/p_test.go": "package p\n\nvar _ = Config{Legacy: 1}\n",
	}
	cases := []struct {
		name   string
		change map[string]string
		want   string // "" = the check passes
	}{
		{"clean", nil, ""},
		{"field only a test sets", map[string]string{"internal/q/q.go": "package q\n\ntype Opts struct{ Knob int }\n", "internal/q/q_test.go": "package q\n\nvar _ = Opts{Knob: 1}\n"}, "internal/q.Opts.Knob is exported but no non-test file sets it"},
		{"field only copied", map[string]string{"internal/q/q.go": "package q\n\ntype In struct{ Delay int }\n\ntype Out struct{ Delay int }\n\nfunc Conv(i In) Out { return Out{Delay: i.Delay} }\n"}, "internal/q.In.Delay is exported"},
		{"field only copied by assignment", map[string]string{"internal/q/q.go": "package q\n\ntype In struct{ Delay int }\n\nfunc Conv(i In) (o In) { o.Delay = i.Delay; return o }\n"}, "internal/q.In.Delay is exported"},
		{"kept field gained a setter", map[string]string{"cmd/tool/main.go": "package main\n\nimport \"m/internal/p\"\n\nfunc main() { _ = p.Config{A: 1, Legacy: 2} }\n"}, "keptFields entry internal/p.Config.Legacy is stale"},
		{"kept field no longer declared", map[string]string{"internal/p/p.go": "package p\n\ntype Config struct{ A, B, C, D int }\n\nfunc Normalize(c Config) Config {\n\tc.B = max(c.B, 1)\n\tc.C++\n\treturn c\n}\n"}, "keptFields entry internal/p.Config.Legacy is stale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkFieldsHaveSetters(writeTree(t, clean, c.change), kept)
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
