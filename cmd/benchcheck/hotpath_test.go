package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a scratch source tree: keys are slash-separated
// relative paths, values file contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
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

func writeBenchFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestHotpathPackagesScansDirectives(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sim/sim.go":               "package sim\n\n//arrow:hotpath send\nfunc send() {}\n",
		"internal/sim/sim_test.go":          "package sim\n\n//arrow:hotpath never counted in tests\nfunc helper() {}\n",
		"internal/lint/testdata/src/f/f.go": "package f\n\n//arrow:hotpath fixture, skipped\nfunc h() {}\n",
		"internal/cold/cold.go":             "package cold\n\nfunc idle() {}\n",
		"internal/doc/doc.go":               "package doc\n\n// the string \"//arrow:hotpath\" mid-comment does not count: x\nfunc y() {}\n",
	})
	pkgs, err := hotpathPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !pkgs["repro/internal/sim"] {
		t.Fatalf("pkgs = %v, want exactly repro/internal/sim", pkgs)
	}
}

func TestBenchmarksRunStripsSuffixes(t *testing.T) {
	path := writeBenchFile(t,
		"goos: linux",
		"BenchmarkSimSendDispatch/binary/n=1023-8 \t 200000 \t 151.3 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkBaselinesClosedLoop-8 \t 1 \t 1234 ns/op",
		"PASS",
	)
	ran, err := benchmarksRun(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BenchmarkSimSendDispatch", "BenchmarkBaselinesClosedLoop"} {
		if !ran[want] {
			t.Errorf("%s not detected in %v", want, ran)
		}
	}
}

// hotpathTestTree mirrors the manifest exactly: one annotated file per
// manifest package.
func hotpathTestTree(t *testing.T) string {
	files := map[string]string{}
	for pkg := range hotpathBenchmarks {
		rel := strings.TrimPrefix(pkg, modulePath+"/")
		files[rel+"/hot.go"] = "package p\n\n//arrow:hotpath annotated\nfunc hot() {}\n"
	}
	return writeTree(t, files)
}

func TestCheckHotpathCoverageClean(t *testing.T) {
	root := hotpathTestTree(t)
	bench := writeBenchFile(t,
		"BenchmarkSimSendDispatch/star-8 100 10 ns/op 0 B/op 0 allocs/op",
		"BenchmarkSchedulerPushPop/ladder/pending=1024/delay=200000-8 100 10 ns/op",
		"BenchmarkLinkClock/complete-1024/table-8 100 10 ns/op 0 B/op 0 allocs/op",
		"BenchmarkClosedLoopScale100k/centralized-8 100 10 ns/op",
		"BenchmarkClosedLoopObserved/none-8 100 10 ns/op",
		"BenchmarkBaselinesClosedLoop/arrow-8 100 10 ns/op",
		"BenchmarkShardClosedLoop/k=16-8 100 10 ns/op",
		"BenchmarkShardHandle-8 100 10 ns/op",
	)
	if err := checkHotpathCoverage(root, bench); err != nil {
		t.Fatalf("clean tree flagged: %v", err)
	}
}

func TestCheckHotpathCoverageMissingBenchmark(t *testing.T) {
	root := hotpathTestTree(t)
	bench := writeBenchFile(t,
		"BenchmarkSimSendDispatch/star-8 100 10 ns/op",
		"BenchmarkSchedulerPushPop/ladder/pending=1024/delay=200000-8 100 10 ns/op",
		"BenchmarkLinkClock/complete-1024/table-8 100 10 ns/op 0 B/op 0 allocs/op",
		"BenchmarkClosedLoopScale100k/centralized-8 100 10 ns/op",
		"BenchmarkBaselinesClosedLoop/arrow-8 100 10 ns/op",
		"BenchmarkShardClosedLoop/k=16-8 100 10 ns/op",
		"BenchmarkShardHandle-8 100 10 ns/op",
		// BenchmarkClosedLoopObserved dropped from the sweep.
	)
	err := checkHotpathCoverage(root, bench)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkClosedLoopObserved") {
		t.Fatalf("dropped benchmark not flagged: %v", err)
	}
}

func TestCheckHotpathCoverageUnmappedPackage(t *testing.T) {
	root := hotpathTestTree(t)
	extra := filepath.Join(root, "internal", "rogue")
	if err := os.MkdirAll(extra, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package rogue\n\n//arrow:hotpath unmeasured claim\nfunc hot() {}\n"
	if err := os.WriteFile(filepath.Join(extra, "rogue.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := writeBenchFile(t,
		"BenchmarkSimSendDispatch/star-8 100 10 ns/op",
		"BenchmarkSchedulerPushPop/ladder/pending=1024/delay=200000-8 100 10 ns/op",
		"BenchmarkLinkClock/complete-1024/table-8 100 10 ns/op 0 B/op 0 allocs/op",
		"BenchmarkClosedLoopScale100k/centralized-8 100 10 ns/op",
		"BenchmarkClosedLoopObserved/none-8 100 10 ns/op",
		"BenchmarkBaselinesClosedLoop/arrow-8 100 10 ns/op",
		"BenchmarkShardClosedLoop/k=16-8 100 10 ns/op",
		"BenchmarkShardHandle-8 100 10 ns/op",
	)
	err := checkHotpathCoverage(root, bench)
	if err == nil || !strings.Contains(err.Error(), "repro/internal/rogue") {
		t.Fatalf("unmapped annotated package not flagged: %v", err)
	}
}

func TestCheckHotpathCoverageStaleManifestEntry(t *testing.T) {
	root := hotpathTestTree(t)
	// Strip the annotations from one manifest package.
	simDir := filepath.Join(root, "internal", "sim")
	if err := os.WriteFile(filepath.Join(simDir, "hot.go"), []byte("package p\n\nfunc cooled() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := writeBenchFile(t,
		"BenchmarkSimSendDispatch/star-8 100 10 ns/op",
		"BenchmarkSchedulerPushPop/ladder/pending=1024/delay=200000-8 100 10 ns/op",
		"BenchmarkLinkClock/complete-1024/table-8 100 10 ns/op 0 B/op 0 allocs/op",
		"BenchmarkClosedLoopScale100k/centralized-8 100 10 ns/op",
		"BenchmarkClosedLoopObserved/none-8 100 10 ns/op",
		"BenchmarkBaselinesClosedLoop/arrow-8 100 10 ns/op",
		"BenchmarkShardClosedLoop/k=16-8 100 10 ns/op",
		"BenchmarkShardHandle-8 100 10 ns/op",
	)
	err := checkHotpathCoverage(root, bench)
	if err == nil || !strings.Contains(err.Error(), "no //arrow:hotpath annotations left") {
		t.Fatalf("stale manifest entry not flagged: %v", err)
	}
}

// TestCheckHotpathCoverageRepo runs the real check over the real repo
// with a synthetic bench file listing every manifest benchmark — pinning
// that the manifest matches the tree as committed (the benchmark-side
// half is pinned by CI, which uses the actual sweep output).
func TestCheckHotpathCoverageRepo(t *testing.T) {
	var lines []string
	for _, benches := range hotpathBenchmarks {
		for _, b := range benches {
			lines = append(lines, b+"-8 100 10 ns/op")
		}
	}
	bench := writeBenchFile(t, lines...)
	if err := checkHotpathCoverage(filepath.Join("..", ".."), bench); err != nil {
		t.Fatalf("manifest out of sync with the repo: %v", err)
	}
}
