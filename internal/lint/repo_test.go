package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// listedPackage is the part of a `go list -json` record the repo lint
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Export     string
	ForTest    string
	DepOnly    bool
	Module     *struct{ Path, GoVersion string }
	Error      *struct{ Err string }
}

// TestRepoClean is the lint gate on the repo itself. It lints the units
// `go vet ./...` would: each package of the module as its test variant
// "P [P.test]" when it has in-package tests and as P otherwise, and
// each external test package "P_test [P.test]" on its own. The units
// come from one `go list -test -export -deps` run, which applies build
// constraints as a build does and leaves compiler export data for every
// import in the build cache; each unit is parsed from source and
// typechecked against that export data.
//
// Every finding fails the test, and so does an //arrow:allow that
// suppresses none: a stale directive would hide the next real finding
// at its site, and the live ones show that the listing and the suite
// still reach the repo.
func TestRepoClean(t *testing.T) {
	units, exports := listRepo(t)
	for _, u := range units {
		lp, err := typecheckUnit(u, exports)
		if err != nil {
			t.Errorf("%s: %v", u.ImportPath, err)
			continue
		}
		diags, err := runSuite(lp.Fset, lp.Files, lp.Pkg, lp.Info, lp.Path, u.Module.Path, nil)
		if err != nil {
			t.Errorf("%s: %v", u.ImportPath, err)
			continue
		}
		for _, d := range diags {
			if !d.Suppress {
				t.Errorf("%s: [%s] %s", d.Pos, d.Check, d.Message)
			}
		}
		for _, a := range scanDirectives(lp.Fset, lp.Files).allows {
			if !slices.ContainsFunc(diags, func(d Diagnostic) bool { return d.Suppress && a.covers(d.Check, d.Pos) }) {
				t.Errorf("%s:%d: //arrow:allow %s suppresses no finding: delete it", a.filename, a.fromLine, a.check)
			}
		}
	}
}

// listRepo lists the module rooted two directories up and returns its
// lint units and the export data file of every listed package, keyed by
// the package's ID.
func listRepo(t *testing.T) ([]*listedPackage, map[string]string) {
	t.Helper()
	cmd := exec.Command("go", "list", "-e", "-test", "-export", "-deps", "-json", "./...")
	cmd.Dir = filepath.Join("..", "..")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var all []*listedPackage
	exports := map[string]string{}
	tested := map[string]bool{} // packages with a "P [P.test]" variant
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		if p.ForTest != "" && canonicalPath(p.ImportPath) == p.ForTest {
			tested[p.ForTest] = true
		}
		all = append(all, p)
	}
	var units []*listedPackage
	for _, p := range all {
		// Dependencies, the variants recompiled for another package's
		// test and the generated test mains are not units.
		if !p.DepOnly && !strings.HasSuffix(p.ImportPath, ".test") && (p.ForTest != "" || !tested[p.ImportPath]) {
			units = append(units, p)
		}
	}
	if len(units) == 0 {
		t.Fatal("go list found no package to lint")
	}
	return units, exports
}

// typecheckUnit parses the unit's files and typechecks them, resolving
// each import through the unit's ImportMap to the listed export data.
func typecheckUnit(u *listedPackage, exports map[string]string) (*LoadedPackage, error) {
	lp := &LoadedPackage{Fset: token.NewFileSet(), Info: newInfo(), Path: u.ImportPath}
	for _, name := range u.GoFiles {
		f, err := parser.ParseFile(lp.Fset, filepath.Join(u.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		lp.Files = append(lp.Files, f)
	}
	cfg := &types.Config{
		Importer: importer.ForCompiler(lp.Fset, "gc", func(path string) (io.ReadCloser, error) {
			if mapped, ok := u.ImportMap[path]; ok {
				path = mapped
			}
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(exports[path])
		}),
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: "go" + u.Module.GoVersion,
	}
	var err error
	lp.Pkg, err = cfg.Check(u.ImportPath, lp.Fset, lp.Files, lp.Info)
	return lp, err
}
