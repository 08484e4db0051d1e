package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// This file implements the `go vet -vettool` driver protocol (the
// protocol golang.org/x/tools/go/analysis/unitchecker speaks; x/tools
// is not vendorable here, so arrowlint implements it directly on the
// standard library). go vet invokes the tool once per package with a
// JSON config file as the sole positional argument; the config names
// the source files and maps every import to a compiler export-data
// file, which go/importer's gc importer can read natively. The tool
// must write the (for arrowlint, empty) facts file at VetxOutput so
// go vet can cache the run, must stay silent on VetxOnly dependency
// passes, and signals findings with exit code 2.

// VetConfig mirrors cmd/go's internal vetConfig JSON.
type VetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// RunVet executes one unit-checker invocation against the vet config at
// cfgPath and returns the process exit code: 0 clean, 1 tool/typecheck
// error, 2 findings.
func RunVet(w io.Writer, cfgPath string) int {
	cfg, err := readVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(w, "arrowlint: %v\n", err)
		return 1
	}
	// Facts first: go vet caches the run keyed on this file existing,
	// and arrowlint has no cross-package facts to record.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(w, "arrowlint: writing facts: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency pass: facts only, no diagnostics wanted
	}
	diags, err := analyzeUnit(cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(w, "arrowlint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	reported := 0
	for _, d := range diags {
		if d.Suppress {
			continue
		}
		fmt.Fprintf(w, "%s: [%s] %s\n", d.Pos, d.Check, d.Message)
		reported++
	}
	if reported > 0 {
		return 2
	}
	return 0
}

func readVetConfig(path string) (*VetConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(VetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %v", path, err)
	}
	if cfg.Compiler != "" && cfg.Compiler != "gc" {
		return nil, fmt.Errorf("unsupported compiler %q (arrowlint reads gc export data only)", cfg.Compiler)
	}
	return cfg, nil
}

// analyzeUnit parses and typechecks the unit described by cfg and runs
// the whole suite over it.
func analyzeUnit(cfg *VetConfig) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var typeErrs []error
	tcfg := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", buildArch()),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	if v := goLanguageVersion(cfg.GoVersion); v != "" {
		tcfg.GoVersion = v
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, _ := tcfg.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, typeErrs[0]
	}
	return RunSuite(fset, files, pkg, info, cfg.ImportPath, cfg.ModulePath, nil)
}

func buildArch() string {
	if arch := os.Getenv("GOARCH"); arch != "" {
		return arch
	}
	return runtime.GOARCH
}

// goLanguageVersion normalizes cfg.GoVersion to what types.Config
// accepts ("go1.24"); release candidates and devel strings carry
// suffixes types rejects, so trim to the major.minor prefix.
func goLanguageVersion(v string) string {
	if !strings.HasPrefix(v, "go") {
		return ""
	}
	dots := 0
	for i := 2; i < len(v); i++ {
		c := v[i]
		if c == '.' {
			dots++
			if dots == 2 {
				return v[:i]
			}
			continue
		}
		if c < '0' || c > '9' {
			return v[:i]
		}
	}
	return v
}
