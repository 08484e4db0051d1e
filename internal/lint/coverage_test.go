package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hotpathBenchmarks maps every package directory that carries
// //arrow:hotpath functions to the benchmarks that exercise them with
// -benchmem — root-package ones, plus internal/sim's own
// BenchmarkSchedulerPushPop, whose delay=600, delay=4096 and
// delay=1<<28 cells are what runs the scheduler's next-epoch push, heap
// push and heap pour in isolation (BenchmarkClosedLoopScale100k/centralized
// runs the next-epoch crossing under a protocol), and BenchmarkLinkClock, the only one that sends with both
// link clocks live and through both of their representations, and
// internal/shard's BenchmarkShardHandle, the driver's message handler at
// the headline cell's size. A hot-path claim is only worth something
// while a benchmark measures it: TestHotpathCoverage fails when an
// annotated package is missing here, when an entry no longer has
// annotations, or when a named benchmark is no longer declared in the
// module. CI's bench smoke (`-bench . -benchtime 1x`, no -short) runs
// every declared benchmark, so declared means run.
var hotpathBenchmarks = map[string][]string{
	"internal/sim":         {"BenchmarkSimSendDispatch", "BenchmarkSchedulerPushPop", "BenchmarkLinkClock", "BenchmarkClosedLoopScale100k"},
	"internal/centralized": {"BenchmarkBaselinesClosedLoop"},
	"internal/shard":       {"BenchmarkClosedLoopObserved", "BenchmarkBaselinesClosedLoop", "BenchmarkShardClosedLoop", "BenchmarkShardHandle"},
}

// checkHotpathCoverage cross-checks manifest against the module rooted
// at root: the package directories holding a function the hotpath
// analyzer treats as hot (scanDirectives — the directive in a FuncDecl's
// doc comment, outside _test.go files) and the top-level Benchmark
// functions declared in its _test.go files. testdata trees (lint
// fixtures carry deliberate directives), hidden directories and nested
// modules are not part of the module.
func checkHotpathCoverage(root string, manifest map[string][]string) error {
	fset := token.NewFileSet()
	sources := map[string][]*ast.File{}
	declared := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(name, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(rel)
			sources[dir] = append(sources[dir], f)
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	annotated := map[string]bool{}
	for dir, files := range sources {
		if len(scanDirectives(fset, files).hotpaths) > 0 {
			annotated[dir] = true
		}
	}
	if len(annotated) == 0 {
		return fmt.Errorf("no //arrow:hotpath function found under %s", root)
	}
	var msgs []string
	for dir := range annotated {
		benches, ok := manifest[dir]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("package %s has //arrow:hotpath functions but no entry in hotpathBenchmarks; add it with the benchmark that measures it", dir))
		}
		for _, b := range benches {
			if !declared[b] {
				msgs = append(msgs, fmt.Sprintf("package %s maps to %s, which no _test.go file in the module declares", dir, b))
			}
		}
	}
	for dir := range manifest {
		if !annotated[dir] {
			msgs = append(msgs, fmt.Sprintf("manifest entry %s has no //arrow:hotpath functions left; remove it from hotpathBenchmarks", dir))
		}
	}
	if len(msgs) > 0 {
		sort.Strings(msgs)
		return fmt.Errorf("hotpath coverage broken:\n  %s", strings.Join(msgs, "\n  "))
	}
	return nil
}

// TestHotpathCoverage pins the manifest to the repo as committed.
func TestHotpathCoverage(t *testing.T) {
	if err := checkHotpathCoverage(filepath.Join("..", ".."), hotpathBenchmarks); err != nil {
		t.Fatal(err)
	}
}

// TestHotpathCoverageFindsGaps runs the check over scratch modules, one
// per way the manifest and the tree can drift apart.
func TestHotpathCoverageFindsGaps(t *testing.T) {
	const hot = "package p\n\n// hot is measured.\n//\n//arrow:hotpath annotated\nfunc hot() {}\n"
	manifest := map[string][]string{
		"internal/sim":   {"BenchmarkSend"},
		"internal/shard": {"BenchmarkHandle", "BenchmarkSend"},
	}
	clean := map[string]string{
		"internal/sim/sim.go":         hot,
		"internal/shard/shard.go":     hot,
		"bench_test.go":               "package repro\n\nimport \"testing\"\n\nfunc BenchmarkSend(b *testing.B) {}\n",
		"internal/shard/h_test.go":    "package p\n\nimport \"testing\"\n\nfunc BenchmarkHandle(b *testing.B) {}\n\n//arrow:hotpath never counted in tests\nfunc helper() {}\n",
		"internal/lint/testdata/f.go": hot,
		"internal/doc/doc.go":         "package doc\n\n// the string \"//arrow:hotpath\" mid-comment does not count: x\nfunc y() {}\n",
		"bench/go.mod":                "module repro/bench\n",
		"bench/hot.go":                hot,
	}
	cases := []struct {
		name   string
		change map[string]string // path -> new content; "" deletes the file
		want   string            // "" = the check passes
	}{
		{"clean", nil, ""},
		{"annotated package the manifest lacks", map[string]string{"internal/rogue/rogue.go": hot}, "package internal/rogue has //arrow:hotpath functions but no entry"},
		{"benchmark no longer declared", map[string]string{"internal/shard/h_test.go": ""}, "internal/shard maps to BenchmarkHandle"},
		{"stale manifest entry", map[string]string{"internal/sim/sim.go": "package p\n\nfunc cooled() {}\n"}, "manifest entry internal/sim has no //arrow:hotpath functions left"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkHotpathCoverage(writeTree(t, clean, c.change), manifest)
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

// writeTree lays out a scratch module: the base files with change applied
// on top (path -> content; "" deletes the file). It returns the root.
func writeTree(t *testing.T, base, change map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{}
	for rel, content := range base {
		files[rel] = content
	}
	for rel, content := range change {
		files[rel] = content
	}
	for rel, content := range files {
		if content == "" {
			continue
		}
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}
