package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer is the static twin of the zero-alloc send test
// (TestSimSendDispatchZeroAlloc). A function whose doc comment carries //arrow:hotpath declares that it
// runs on the per-send/per-event path and must not allocate at steady
// state. The analyzer rejects the four allocation sources that have
// actually bitten this codebase, and one copy source:
//
//   - fmt calls (every fmt.* call allocates; a fmt call that is the
//     direct argument of panic is exempt — the formatting runs once,
//     on the way down);
//   - closures that capture variables (captured vars move to the heap;
//     the closure-free TimerHandler/ScheduleNodeAt API exists exactly
//     so hot paths never need one);
//   - boxing a non-pointer-shaped value into an interface (pointers,
//     maps, chans and funcs are stored directly in the iface word;
//     everything else allocates — pre-box messages once, like the
//     drivers' msgs arrays);
//   - appending to a slice declared in the same function with no
//     capacity (var s []T, s := []T{}, or make([]T, 0)): growth
//     reallocates on the hot path; pre-size it;
//   - a struct wider than four machine words passed by value — as a
//     parameter, receiver or result of the function, or as an argument
//     of a call it makes. Such a value travels through memory, and a
//     struct assembled with narrow field stores and then reloaded with
//     wide vector moves defeats store-to-load forwarding: two such
//     reloads of the 64-byte event were 14 % of the serial drain's
//     profile. Pass a pointer, or have the callee hand back the slot
//     for the caller to fill in place (ladderQueue.push).
//
// A finding that is intentional — e.g. an amortized freelist grow —
// takes an //arrow:allow hotpath <reason>.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	// A hotpath directive anywhere but a function's doc comment does
	// nothing; that silence is a bug in the annotation, so report it.
	marked := map[*ast.CommentGroup]bool{}
	for _, hp := range pass.dirs.hotpaths {
		if hp.decl.Doc != nil {
			marked[hp.decl.Doc] = true
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			if marked[cg] {
				continue
			}
			for _, c := range cg.List {
				if verb, _, ok := parseDirective(c.Text); ok && verb == "hotpath" {
					pass.Reportf(c.Pos(), "arrow:hotpath must be in the doc comment of a function declaration to take effect")
				}
			}
		}
	}
	for _, hp := range pass.dirs.hotpaths {
		checkHotFunc(pass, hp.decl)
	}
	return nil
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	if fn.Body == nil {
		return
	}
	for _, fields := range []*ast.FieldList{fn.Recv, fn.Type.Params, fn.Type.Results} {
		if fields == nil {
			continue
		}
		for _, f := range fields.List {
			checkWideValue(pass, fn, f.Type, "signature")
		}
	}
	locals := localSliceDecls(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, locals)
		case *ast.FuncLit:
			if capturesOuter(pass, fn, n) {
				pass.Reportf(n.Pos(), "capturing closure in hotpath %s: captured variables escape to the heap; use the closure-free timer/handler API", fn.Name.Name)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					checkBoxing(pass, fn, n.Rhs[i], pass.Info.TypeOf(lhs))
				}
			}
		case *ast.ReturnStmt:
			sig, _ := pass.Info.TypeOf(fn.Name).(*types.Signature)
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					checkBoxing(pass, fn, res, sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, locals map[types.Object]bool) {
	if pkg, name := calleePkgFunc(pass.Info, call); pkg == "fmt" {
		if !insidePanic(pass, fn, call) {
			pass.Reportf(call.Pos(), "fmt.%s in hotpath %s: fmt always allocates; move formatting off the send path", name, fn.Name.Name)
		}
		return
	}
	// Unsized-append check: append to a slice declared in this very
	// function with zero capacity.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if b, ok := pass.Info.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
			if target, ok := call.Args[0].(*ast.Ident); ok && locals[pass.Info.ObjectOf(target)] {
				pass.Reportf(call.Pos(), "append to unsized local slice %s in hotpath %s: pre-size it (make with capacity) or hoist it out", target.Name, fn.Name.Name)
			}
		}
		return
	}
	// Boxing check on arguments against the callee signature.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(pass, fn, arg, pt)
		checkWideValue(pass, fn, arg, "call argument")
	}
}

// wideStructWords is the by-value ceiling: a struct of up to four words
// travels in registers under Go's register ABI without costing more than
// the pointer-plus-loads alternative; anything wider goes through memory.
const wideStructWords = 4

// hotpathSizes measures structs the way the benchmark host lays them
// out. Fixed rather than taken from the build so a finding does not
// depend on where the linter runs.
var hotpathSizes = types.SizesFor("gc", "amd64")

// checkWideValue reports expr — a type expression in fn's signature or
// an argument of a call fn makes — when it denotes a struct wider than
// wideStructWords passed by value.
func checkWideValue(pass *Pass, fn *ast.FuncDecl, expr ast.Expr, where string) {
	t := pass.Info.TypeOf(expr)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	word := hotpathSizes.Sizeof(types.Typ[types.Uintptr])
	words := (hotpathSizes.Sizeof(t) + word - 1) / word
	if words <= wideStructWords || insidePanic(pass, fn, expr) {
		return
	}
	pass.Reportf(expr.Pos(), "%s (%d words) passed by value in %s of hotpath %s: a struct over %d words travels through memory and its reload defeats store forwarding; pass a pointer or fill it in place",
		types.TypeString(t, types.RelativeTo(pass.Pkg)), words, where, fn.Name.Name, wideStructWords)
}

// checkBoxing reports expr if assigning it to target boxes a
// non-pointer-shaped value into an interface.
func checkBoxing(pass *Pass, fn *ast.FuncDecl, expr ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	if types.IsInterface(tv.Type) {
		return // interface-to-interface carries the word, no alloc
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return // pointer-shaped: stored directly in the interface word
	}
	if insidePanic(pass, fn, expr) {
		return // panic formatting is the cold path
	}
	pass.Reportf(expr.Pos(), "%s value boxed into interface in hotpath %s: boxing a non-pointer allocates; pre-box it once outside the loop", types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), fn.Name.Name)
}

// insidePanic reports whether expr sits (transitively) inside the
// argument of a panic call within fn — formatting a panic message is
// one-shot by definition and exempt from hot-path rules.
func insidePanic(pass *Pass, fn *ast.FuncDecl, expr ast.Expr) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
				if call.Pos() <= expr.Pos() && expr.End() <= call.End() {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// capturesOuter reports whether lit references a variable declared in
// fn outside the literal itself (receiver, parameter, or local).
func capturesOuter(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside fn but outside the literal.
		if v.Pos() >= fn.Pos() && v.Pos() < fn.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// localSliceDecls collects objects for slices declared inside fn with
// zero capacity: `var s []T`, `s := []T{}`, `s := make([]T, 0)` (or any
// make with no capacity argument).
func localSliceDecls(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	locals := map[types.Object]bool{}
	mark := func(id *ast.Ident, init ast.Expr) {
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if init == nil {
			locals[obj] = true // var s []T
			return
		}
		switch e := init.(type) {
		case *ast.CompositeLit:
			if len(e.Elts) == 0 {
				locals[obj] = true // s := []T{}
			}
		case *ast.CallExpr:
			if f, ok := e.Fun.(*ast.Ident); ok && f.Name == "make" && len(e.Args) <= 2 {
				if _, isBuiltin := pass.Info.ObjectOf(f).(*types.Builtin); isBuiltin {
					locals[obj] = true // make([]T, n) without cap
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && len(n.Rhs) == len(n.Lhs) {
					mark(id, n.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					mark(id, init)
				}
			}
		}
		return true
	})
	return locals
}
