package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hotpathBenchmarks maps every package that carries //arrow:hotpath
// annotations to the benchmarks that exercise those functions with
// -benchmem — root-package ones, plus internal/sim's own
// BenchmarkSchedulerPushPop, whose delay=200000 and delay=1<<28 cells
// are what runs the scheduler's far push, cascade and heap pour in
// isolation (BenchmarkClosedLoopScale100k/centralized runs them under a
// protocol), and BenchmarkLinkClock, the only one that sends with both
// link clocks live and through both of their representations, and
// internal/shard's BenchmarkShardHandle, the driver's message handler at
// the headline cell's size. The -hotpath check fails when an annotated
// package is missing from this manifest (a hot path nobody measures),
// when a manifest entry no longer has annotations (a stale claim), or
// when a mapped benchmark is absent from the bench output (the
// measurement silently dropped out of CI).
var hotpathBenchmarks = map[string][]string{
	"repro/internal/sim":         {"BenchmarkSimSendDispatch", "BenchmarkSchedulerPushPop", "BenchmarkLinkClock", "BenchmarkClosedLoopScale100k"},
	"repro/internal/centralized": {"BenchmarkBaselinesClosedLoop"},
	"repro/internal/shard":       {"BenchmarkClosedLoopObserved", "BenchmarkBaselinesClosedLoop", "BenchmarkShardClosedLoop", "BenchmarkShardHandle"},
}

// modulePath is the import-path prefix for packages under the repo root.
const modulePath = "repro"

// checkHotpathCoverage cross-checks the //arrow:hotpath annotations
// under root against the benchmarks recorded in the bench output file:
// every annotated package must map, via hotpathBenchmarks, to at least
// one benchmark that actually ran. Directive scanning is textual (a
// line-leading //arrow:hotpath comment), matching how arrowlint's
// hotpath analyzer discovers them; testdata trees and _test.go files
// are skipped because lint fixtures deliberately contain directives.
func checkHotpathCoverage(root, benchPath string) error {
	annotated, err := hotpathPackages(root)
	if err != nil {
		return err
	}
	if len(annotated) == 0 {
		return fmt.Errorf("no //arrow:hotpath annotations found under %s (wrong -hotpath root?)", root)
	}
	ran, err := benchmarksRun(benchPath)
	if err != nil {
		return err
	}
	var msgs []string
	for _, pkg := range sortedKeys(annotated) {
		benches, ok := hotpathBenchmarks[pkg]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("package %s has //arrow:hotpath functions but no entry in the benchcheck manifest; add it to hotpathBenchmarks with the benchmark that measures it", pkg))
			continue
		}
		for _, b := range benches {
			if !ran[b] {
				msgs = append(msgs, fmt.Sprintf("package %s maps to %s, which is missing from %s (did the benchmark sweep skip it?)", pkg, b, benchPath))
			}
		}
	}
	for _, pkg := range sortedKeys(hotpathBenchmarks) {
		if !annotated[pkg] {
			msgs = append(msgs, fmt.Sprintf("manifest entry %s has no //arrow:hotpath annotations left; remove it from hotpathBenchmarks", pkg))
		}
	}
	if len(msgs) > 0 {
		return fmt.Errorf("hotpath coverage broken:\n  %s", strings.Join(msgs, "\n  "))
	}
	return nil
}

// hotpathPackages walks the Go source under root and returns the import
// paths of packages containing a //arrow:hotpath directive.
func hotpathPackages(root string) (map[string]bool, error) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// Skip testdata (lint fixtures carry deliberate directives)
			// and hidden dirs — but never the walk root itself, whose
			// name may be "." or "..".
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		has, err := fileHasHotpath(path)
		if err != nil {
			return err
		}
		if has {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkg := modulePath
			if rel != "." {
				pkg += "/" + filepath.ToSlash(rel)
			}
			pkgs[pkg] = true
		}
		return nil
	})
	return pkgs, err
}

func fileHasHotpath(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "//arrow:hotpath" || strings.HasPrefix(line, "//arrow:hotpath ") {
			return true, nil
		}
	}
	return false, sc.Err()
}

// benchmarksRun parses go test -bench output and returns the set of
// top-level benchmark names (sub-benchmark and GOMAXPROCS suffixes
// stripped) that produced a result line.
func benchmarksRun(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ran := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			name = name[:i]
		}
		ran[name] = true
	}
	return ran, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
