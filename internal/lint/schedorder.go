package lint

import (
	"go/ast"
	"go/types"
)

// SchedorderAnalyzer keeps every event and timer on the simulator's
// (at, pri, seq) total order. The scheduler's determinism guarantees
// hold only if all scheduling flows through the sim API — sim.New,
// Context.Send/After/AfterNode, Simulator.ScheduleAt/ScheduleNodeAt —
// so the analyzer flags the ways code has tried (or could try) to go
// around it:
//
//   - constructing sim.Simulator or sim.Context directly (composite
//     literal or new) outside the sim package: a zero-value Simulator
//     skips New's stream seeding and plan compilation; a hand-built
//     Context forges scheduling authority;
//   - storing a *sim.Context anywhere that outlives the handler call
//     (struct field, slice/map element, package var, channel): the
//     context is only valid during its handler dispatch, and a stashed
//     context schedules outside the event order;
//   - wall-clock timers (time.Sleep/After/AfterFunc/NewTimer/
//     NewTicker/Tick) in deterministic packages outside sim: simulated
//     time is the only clock events may ride;
//   - importing container/heap in a deterministic package outside sim:
//     a second event queue cannot share the (at, pri, seq) order — put
//     the events on the scheduler instead.
//
// Scheduler-owned types are recognized by package name "sim" so the
// fixture packages exercise the same code path as the real
// internal/sim.
var SchedorderAnalyzer = &Analyzer{
	Name: "schedorder",
	Run:  runSchedorder,
}

var wallClockTimerFuncs = map[string]bool{
	"Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
}

func runSchedorder(pass *Pass) error {
	inSim := pass.Pkg.Name() == "sim"
	det := pass.InDeterministicPackage()
	for _, f := range pass.Files {
		test := isTestFile(pass.Fset, f.Pos())
		if det && !inSim && !test {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"container/heap"` {
					pass.Reportf(imp.Pos(), "container/heap in deterministic package %s: a second event queue cannot share the scheduler's (at, pri, seq) order", pass.Pkg.Name())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if inSim {
					return true
				}
				if name, ok := schedulerOwnedType(pass.Info.TypeOf(n)); ok {
					pass.Reportf(n.Pos(), "direct construction of sim.%s outside internal/sim: go through sim.New and the scheduler API", name)
				}
			case *ast.CallExpr:
				if !inSim {
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
						if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
							if name, ok := schedulerOwnedType(pass.Info.TypeOf(n.Args[0])); ok {
								pass.Reportf(n.Pos(), "direct construction of sim.%s outside internal/sim: go through sim.New and the scheduler API", name)
							}
						}
					}
				}
				if det && !inSim && !test {
					if pkg, name := calleePkgFunc(pass.Info, n); pkg == "time" && wallClockTimerFuncs[name] {
						pass.Reportf(n.Pos(), "wall-clock time.%s in deterministic package %s: schedule through the simulator (Context.After/AfterNode, ScheduleNodeAt)", name, pass.Pkg.Name())
					}
				}
			case *ast.AssignStmt:
				if inSim {
					return true
				}
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) || !isContextPtr(pass.Info.TypeOf(n.Rhs[i])) {
						continue
					}
					switch lhs := lhs.(type) {
					case *ast.SelectorExpr:
						pass.Reportf(n.Pos(), "storing *sim.Context in a field: contexts are valid only during their handler call; capture node IDs and reschedule instead")
					case *ast.IndexExpr:
						pass.Reportf(n.Pos(), "storing *sim.Context in a container: contexts are valid only during their handler call")
					case *ast.Ident:
						if v, ok := pass.Info.ObjectOf(lhs).(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
							pass.Reportf(n.Pos(), "storing *sim.Context in package variable %s: contexts are valid only during their handler call", lhs.Name)
						}
					}
				}
			case *ast.SendStmt:
				if !inSim && isContextPtr(pass.Info.TypeOf(n.Value)) {
					pass.Reportf(n.Pos(), "sending *sim.Context on a channel: contexts are valid only during their handler call")
				}
			case *ast.KeyValueExpr:
				if !inSim && isContextPtr(pass.Info.TypeOf(n.Value)) {
					pass.Reportf(n.Pos(), "storing *sim.Context in a composite literal: contexts are valid only during their handler call")
				}
			}
			return true
		})
	}
	return nil
}

// schedulerOwnedType reports whether typ is one of the sim package's
// scheduler-owned structs that only internal/sim may construct.
func schedulerOwnedType(typ types.Type) (string, bool) {
	named := namedOf(typ)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "sim" {
		return "", false
	}
	name := named.Obj().Name()
	if name == "Simulator" || name == "Context" {
		return name, true
	}
	return "", false
}

// isContextPtr reports whether typ is *sim.Context.
func isContextPtr(typ types.Type) bool {
	ptr, ok := typ.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Context" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "sim"
}
