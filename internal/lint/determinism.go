package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer enforces bit-reproducibility in deterministic
// packages. Everything that feeds results, messages, or scheduling must
// be a pure function of the seed, so:
//
//   - no wall-clock reads: time.Now, time.Since, time.Until;
//   - no global math/rand generator (seeded *rand.Rand constructed via
//     rand.New(rand.NewSource(seed)) is the sanctioned source);
//   - no map iteration: range order is randomized by the runtime, so
//     any map range can leak nondeterminism into whatever the loop
//     computes — iterate a sorted key slice instead (det.SortedKeys);
//   - no goroutine spawns outside internal/par: par.ParallelMap is the
//     single place where concurrency is made deterministic by
//     index-owned result slots.
//
// _test.go files are exempt: tests are the dynamic gate and use
// timing/seeding idioms of their own.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions backed by the shared global Source. Constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) are fine: they produce the
// seeded streams the repo runs on.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true, "Int31": true, "Int31n": true,
	"Int32": true, "Int32N": true, "Int63": true, "Int63n": true,
	"Int64": true, "Int64N": true, "Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true,
}

func runDeterminism(pass *Pass) error {
	if !pass.InDeterministicPackage() {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if pkg, name := calleePkgFunc(pass.Info, n); pkg != "" {
					switch {
					case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
						pass.Reportf(n.Pos(), "time.%s in deterministic package %s: inject a clock or take times from the simulator", name, pass.Pkg.Name())
					case (pkg == "math/rand" || pkg == "math/rand/v2") && globalRandFuncs[name]:
						pass.Reportf(n.Pos(), "global rand.%s in deterministic package %s: draw from a seeded *rand.Rand instead", name, pass.Pkg.Name())
					}
				}
			case *ast.RangeStmt:
				if t := pass.Info.TypeOf(n.X); t != nil && mapsOnly(t) {
					pass.Reportf(n.Pos(), "map iteration order is random and this package is deterministic: iterate sorted keys (det.SortedKeys) or keep a slice")
				}
			case *ast.GoStmt:
				if pass.Pkg.Name() != "par" {
					pass.Reportf(n.Pos(), "goroutine spawn in deterministic package %s: route concurrency through par.ParallelMap (or engine.Sweep)", pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}

// mapsOnly reports whether every type in t's type set has a map as its
// underlying type, so that ranging over t iterates a map. A type
// parameter's underlying type is its constraint interface, whose type
// set is the intersection of its embedded elements: one element that
// holds only maps (a union of map terms, or an interface of them) is
// enough.
func mapsOnly(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if mapsOnly(u.EmbeddedType(i)) {
				return true
			}
		}
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			if !mapsOnly(u.Term(i).Type()) {
				return false
			}
		}
		return u.Len() > 0
	}
	return false
}

// calleePkgFunc resolves a call of the form pkg.Func to its package
// path and function name; it returns "" for method calls, locals, and
// builtins.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := info.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}
