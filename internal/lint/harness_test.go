package lint

// The fixture harness is a small analysistest: each fixture package
// under testdata/src declares its expected findings inline with want
// comments, the harness loads and typechecks the package with Loader,
// runs the suite, and diffs reported against expected.
//
// Comment syntax, anywhere inside a comment's text:
//
//	want `regexp`            an unsuppressed finding on this line whose
//	                         message matches regexp
//	want:allowed `regexp`    a finding on this line that an
//	                         //arrow:allow directive suppressed — this
//	                         is how fixtures prove suppression works
//	want+N `regexp`          same, but the finding is N lines below the
//	                         comment (for findings reported at a bare
//	                         directive line that cannot hold a second
//	                         comment)
//
// Every reported diagnostic must be claimed by exactly one want, and
// every want must be claimed by a diagnostic; either leftover fails.

import (
	"regexp"
	"strconv"
	"testing"
)

var wantRE = regexp.MustCompile("want(:allowed)?(\\+[0-9]+)? `([^`]*)`")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	source  string
	allowed bool
	matched bool
}

func fixtureExpectations(t *testing.T, lp *LoadedPackage) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[3])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[3], err)
					}
					pos := lp.Fset.Position(c.Pos())
					line := pos.Line
					if m[2] != "" {
						off, _ := strconv.Atoi(m[2][1:])
						line += off
					}
					exps = append(exps, &expectation{
						file:    pos.Filename,
						line:    line,
						re:      re,
						source:  m[3],
						allowed: m[1] != "",
					})
				}
			}
		}
	}
	return exps
}

// runFixture analyzes testdata/src/<path> with the named analyzers and
// diffs the diagnostics against the fixture's want comments.
func runFixture(t *testing.T, path string, analyzers ...string) {
	t.Helper()
	loader := NewLoader("testdata/src")
	lp, err := loader.Load(path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a] = true
	}
	diags, err := runSuite(lp.Fset, lp.Files, lp.Pkg, lp.Info, lp.Path, "repro", enabled)
	if err != nil {
		t.Fatalf("running suite on %s: %v", path, err)
	}
	exps := fixtureExpectations(t, lp)
	for _, d := range diags {
		claimed := false
		for _, e := range exps {
			if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line &&
				e.allowed == d.Suppress && e.re.MatchString(d.Message) {
				e.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic %s:%d: [%s] %s (suppressed=%v)",
				d.Pos.Filename, d.Pos.Line, d.Check, d.Message, d.Suppress)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("want at %s:%d not reported: `%s` (allowed=%v)",
				e.file, e.line, e.source, e.allowed)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "detfix", "determinism") }
func TestHotpathFixture(t *testing.T)     { runFixture(t, "hotfix", "hotpath") }
func TestMsgswitchFixture(t *testing.T)   { runFixture(t, "msgfix", "msgswitch") }
func TestSchedorderFixture(t *testing.T)  { runFixture(t, "schedfix", "schedorder") }
func TestDirectiveFixture(t *testing.T)   { runFixture(t, "dirfix", "arrowdir") }

// TestFixtureSimPackageClean pins that the fixture scheduler stand-in
// itself is finding-free: construction inside a package named sim is
// the sanctioned path.
func TestFixtureSimPackageClean(t *testing.T) { runFixture(t, "sim", "schedorder") }
