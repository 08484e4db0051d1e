// Package lint is arrowlint: a static-analysis suite that enforces the
// repo's determinism, hot-path, and protocol invariants at compile
// time. It is the static twin of the dynamic gates — the
// sweep-determinism property tests, the zero-alloc send test, and
// the scheduler-equivalence traces — and exists so that a stray
// time.Now, a global math/rand call, an unordered map iteration, or a
// capturing closure on a send path is a test failure today instead of
// a flaky CI run three PRs from now.
//
// The suite is built directly on go/ast and go/types (the module is
// dependency-free by policy; golang.org/x/tools is not available), with
// a small framework mirroring the x/tools go/analysis shape: each
// check is an Analyzer with a Run func over a Pass. TestRepoClean runs
// the suite over every package of the module, test files included.
//
// Four analyzers:
//
//   - determinism: in deterministic packages, forbid wall-clock reads
//     (time.Now/Since/Until), the global math/rand generator, map
//     iteration (order reaches results, messages, or scheduling), and
//     goroutine spawns outside internal/par.
//   - hotpath: functions annotated //arrow:hotpath must not call fmt,
//     build capturing closures, box non-pointer values into
//     interfaces, grow locally-declared slices from a zero capacity,
//     or pass a struct wider than four machine words by value.
//   - msgswitch: type switches over a protocol message family (an
//     interface with an is*Msg/is*Message marker method) must list
//     every type in the family, and switches over repo-declared
//     integer enums must cover every declared constant.
//   - schedorder: events and timers go through the (at, pri, seq)
//     scheduler API: no construction of sim.Simulator/sim.Context
//     outside the sim package, no storing a *sim.Context beyond the
//     handler call, and no wall-clock timers or second event heap in
//     deterministic packages.
//
// Suppression: a finding is silenced by an `//arrow:allow <check>
// <reason>` directive on the same line, the line above, or in the doc
// comment of the enclosing declaration. The reason is mandatory; the
// directive analyzer rejects malformed or unknown directives, and
// TestRepoClean rejects a directive that suppresses nothing.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one static check. It mirrors the
// golang.org/x/tools/go/analysis Analyzer shape so the suite reads
// familiarly, but carries only what this suite needs.
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one package. Report goes through
// the framework so //arrow:allow filtering happens in one place.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Path is the canonical import path ("repro/internal/loop"); it can
	// differ from Pkg.Path() in fixture loads.
	Path string
	// Module is the module path ("repro"), or "" when unknown; enum
	// exhaustiveness uses it to recognize repo-declared types.
	Module string

	dirs   *directives
	report func(Diagnostic)
}

// Diagnostic is one finding, attributed to the analyzer that produced
// it.
type Diagnostic struct {
	Pos      token.Position
	Check    string
	Message  string
	Suppress bool // true when an //arrow:allow directive covered it
}

// Reportf files a finding at pos. Findings covered by a matching
// //arrow:allow directive are marked suppressed: TestRepoClean fails
// only on the others, and the fixture harness sees both, so fixtures
// can prove a suppression works.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	}
	if p.dirs != nil && p.dirs.allowed(p.Analyzer.Name, position) {
		d.Suppress = true
	}
	p.report(d)
}

// InDeterministicPackage reports whether the pass's package carries the
// repo's determinism contract: bit-identical outputs for a fixed seed.
// Membership is by import path (the fixed list below) or by an
// `//arrow:deterministic` file directive, which is how new packages and
// test fixtures opt in.
func (p *Pass) InDeterministicPackage() bool {
	path := canonicalPath(p.Path)
	for _, det := range deterministicPackages {
		if path == det {
			return true
		}
	}
	return p.dirs != nil && p.dirs.deterministic
}

// deterministicPackages are the packages whose outputs feed results,
// messages, or scheduling and must therefore be bit-reproducible for a
// fixed seed. internal/runtime is deliberately absent: it is the live
// goroutine-per-node arrow, wall-clock by design, and its agreement
// with the simulator is checked dynamically.
var deterministicPackages = []string{
	"repro/internal/sim",
	"repro/internal/engine",
	"repro/internal/loop",
	"repro/internal/shard",
	"repro/internal/tree",
	"repro/internal/stabilize",
	"repro/internal/arrow",
	"repro/internal/centralized",
	"repro/internal/nta",
	"repro/internal/ivy",
	"repro/internal/directory",
	"repro/internal/workload",
	"repro/internal/graph",
	"repro/internal/queuing",
	"repro/internal/stats",
	"repro/internal/opt",
	"repro/internal/trace",
	"repro/internal/analysis",
	"repro/internal/tsp",
	"repro/internal/det",
	"repro/internal/par",
	"repro/internal/lint",
}

// canonicalPath strips the test-variant suffix go list gives a package
// compiled for a test ("repro/internal/sim [repro/internal/sim.test]").
func canonicalPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// isTestFile reports whether the file at pos is an _test.go file. The
// determinism and wall-clock checks skip tests: tests are gated
// dynamically, and seeded-randomness or timing assertions are
// legitimate there.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// Suite returns the arrowlint analyzers in reporting order: the
// directive validator first (a malformed directive silently disabling a
// check is itself a finding), then the four invariant checks.
func Suite() []*Analyzer {
	return []*Analyzer{
		DirectiveAnalyzer,
		DeterminismAnalyzer,
		HotpathAnalyzer,
		MsgswitchAnalyzer,
		SchedorderAnalyzer,
	}
}

// runSuite analyzes one package with every analyzer in the suite whose
// name is enabled (nil enabled = all) and returns the diagnostics,
// including suppressed ones, in source order.
func runSuite(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, path, module string, enabled map[string]bool) ([]Diagnostic, error) {
	dirs := scanDirectives(fset, files)
	var out []Diagnostic
	for _, a := range Suite() {
		if enabled != nil && !enabled[a.Name] {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Path:     path,
			Module:   module,
			dirs:     dirs,
			report:   func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	// Source order, then check name; the sort is stable, so one check's
	// findings at one position keep the order they were reported in.
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Check, b.Check),
		)
	})
	return out, nil
}
