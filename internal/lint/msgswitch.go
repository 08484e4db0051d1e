package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// MsgswitchAnalyzer enforces exhaustive dispatch over protocol message
// families and repo-declared enums. A forgotten case in a message
// switch is the classic protocol-extension bug: the new message falls
// into default (or worse, is silently dropped) and the failure shows up
// rounds later as a stuck token.
//
// Two kinds of switch are checked:
//
//   - Type switches over a message family. A family is an interface
//     declaring a parameterless marker method matching is*Msg /
//     is*Message (e.g. `type loopMsg interface{ isLoopMsg() }`). Any
//     type switch with at least one case type implementing a family
//     must list every type in that family — every named type in the
//     family's declaring package whose value or pointer implements the
//     marker. A default clause does not excuse a missing case: default
//     is for corruption panics, not for real messages.
//
//   - Value switches over an enum: a defined (non-alias) integer type
//     declared in this module with at least two package-level
//     constants. If every case expression is constant, the cases must
//     cover every declared constant value of the type (names sharing a
//     value count once).
//
// Marker methods travel through export data, so cross-package switches
// stay checkable one package at a time.
var MsgswitchAnalyzer = &Analyzer{
	Name: "msgswitch",
	Run:  runMsgswitch,
}

var markerMethodRE = regexp.MustCompile(`^is[A-Z][A-Za-z0-9]*(Msg|Message)$`)

func runMsgswitch(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n)
			case *ast.SwitchStmt:
				checkEnumSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

// familyOf returns the message-family interface that typ (or its
// pointer) implements, if any.
func familyOf(typ types.Type) *types.Named {
	named := namedOf(typ)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		fam, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		iface, ok := fam.Underlying().(*types.Interface)
		if !ok || !isMarkerIface(iface) {
			continue
		}
		if types.Implements(typ, iface) {
			return fam
		}
	}
	return nil
}

// isMarkerIface reports whether iface declares a parameterless,
// resultless marker method named is*Msg/is*Message.
func isMarkerIface(iface *types.Interface) bool {
	for i := 0; i < iface.NumExplicitMethods(); i++ {
		m := iface.ExplicitMethod(i)
		sig := m.Type().(*types.Signature)
		if markerMethodRE.MatchString(m.Name()) && sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return true
		}
	}
	return false
}

func namedOf(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

func checkTypeSwitch(pass *Pass, sw *ast.TypeSwitchStmt) {
	// Collect the case types and the families they belong to.
	covered := map[*types.Named]bool{} // named type (pointee) -> seen as case
	var families []*types.Named        // case order, deduplicated
	famSeen := map[*types.Named]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			tv, ok := pass.Info.Types[expr]
			if !ok || tv.Type == nil || tv.IsNil() {
				continue
			}
			if named := namedOf(tv.Type); named != nil {
				covered[named] = true
				if !types.IsInterface(named.Underlying()) {
					if fam := familyOf(tv.Type); fam != nil && !famSeen[fam] {
						famSeen[fam] = true
						families = append(families, fam)
					}
				}
			}
		}
	}
	for _, fam := range families {
		iface := fam.Underlying().(*types.Interface)
		pkg := fam.Obj().Pkg()
		var missing []string
		// Scope.Names is sorted, so the report order is deterministic —
		// the linter holds itself to the invariant it enforces.
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			member, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(member.Underlying()) {
				continue
			}
			if !types.Implements(member, iface) && !types.Implements(types.NewPointer(member), iface) {
				continue
			}
			if !covered[member] {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(sw.Pos(), "type switch over message family %s is missing cases for %s",
				fam.Obj().Name(), strings.Join(missing, ", "))
		}
	}
}

func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	tagType := pass.Info.TypeOf(sw.Tag)
	named, ok := tagType.(*types.Named)
	if !ok {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !inModule(pass, pkg) {
		return
	}
	// Declared constants of exactly this type, deduplicated by value.
	type enumConst struct {
		name string
		val  constant.Value
	}
	var consts []enumConst
	seen := map[string]bool{} // value string -> declared
	for _, name := range pkg.Scope().Names() {
		c, ok := pkg.Scope().Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		key := c.Val().ExactString()
		if !seen[key] {
			seen[key] = true
			consts = append(consts, enumConst{name: name, val: c.Val()})
		}
	}
	if len(consts) < 2 {
		return // not an enum, just a typed constant
	}
	coveredVals := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			tv, ok := pass.Info.Types[expr]
			if !ok || tv.Value == nil {
				return // non-constant case: range checks etc.; not an enum dispatch
			}
			coveredVals[tv.Value.ExactString()] = true
		}
	}
	if len(coveredVals) == 0 {
		return // `switch kind {}` with only default, or no cases at all
	}
	var missing []string
	for _, c := range consts {
		if !coveredVals[c.val.ExactString()] {
			missing = append(missing, c.name)
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(), "switch over enum %s is missing cases for %s",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

// inModule reports whether pkg is part of this module (the enum rule
// only applies to repo-declared types; stdlib integer types with
// constants, like reflect.Kind, are out of scope).
func inModule(pass *Pass, pkg *types.Package) bool {
	if pkg == pass.Pkg {
		return true
	}
	path := canonicalPath(pkg.Path())
	return path == pass.Module || strings.HasPrefix(path, pass.Module+"/")
}
