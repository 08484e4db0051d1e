// Package hotfix exercises the hotpath analyzer: each annotated
// function commits one of the four allocation sins or passes a wide
// struct by value, and the clean variants prove the exemptions (panic
// formatting, pre-sized slices, pointer-shaped interface values, structs
// of at most four words, in-place fill through a returned pointer).
package hotfix

import "fmt"

//arrow:hotpath
func Fmt(x int) {
	fmt.Println(x) // want `fmt\.Println in hotpath Fmt`
}

//arrow:hotpath
func Closure(x int) func() int {
	return func() int { return x } // want `capturing closure in hotpath Closure`
}

//arrow:hotpath
func Box(x int) any {
	return x // want `int value boxed into interface in hotpath Box`
}

//arrow:hotpath
func Grow(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `append to unsized local slice out in hotpath Grow`
	}
	return out
}

// Presized allocates once up front and only panics on the cold path:
// no findings.
//
//arrow:hotpath
func Presized(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	if len(out) != len(xs) {
		panic(fmt.Sprintf("hotfix: lost %d elements", len(xs)-len(out)))
	}
	return out
}

// PointerShaped returns a pointer through an interface: the iface word
// holds the pointer directly, no allocation, no finding.
//
//arrow:hotpath
func PointerShaped(p *int) any {
	return p
}

// NonCapturing uses a closure that touches nothing from the enclosing
// frame: nothing escapes, no finding.
//
//arrow:hotpath
func NonCapturing() func() int {
	return func() int { return 42 }
}

// Amortized proves decl-scoped suppression of an intentional unsized
// grow (the freelist idiom).
//
//arrow:allow hotpath fixture: amortized freelist growth, measured zero-alloc at steady state
//arrow:hotpath
func Amortized(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want:allowed `append to unsized local slice out`
	}
	return out
}

// wide is the shape of the simulator's event: six words.
type wide struct {
	at, pri, seq int64
	to, from     int32
	msg          any
}

// narrow fits the register ABI: four words, no finding anywhere.
type narrow struct{ a, b, c, d int64 }

var cells []wide

// ByValue takes, returns and forwards a wide struct by value: one
// finding per position.
//
//arrow:hotpath
func ByValue(w wide) wide { // want `wide \(6 words\) passed by value in signature of hotpath ByValue` want `wide \(6 words\) passed by value in signature of hotpath ByValue`
	sink(w)                   // want `wide \(6 words\) passed by value in call argument of hotpath ByValue`
	sink(wide{at: 1, seq: 2}) // want `wide \(6 words\) passed by value in call argument of hotpath ByValue`
	return w
}

func sink(wide) {}

// InPlace is the fix: the callee hands back the cell, the caller fills
// it. Builtin append is not a call, and four words may travel by value.
//
//arrow:hotpath
func InPlace(at int64, n narrow) (*wide, narrow) {
	cells = append(cells, wide{at: at})
	c := &cells[len(cells)-1]
	c.pri, c.seq = n.a, n.b
	return c, n
}

// LoggedOp keeps a by-value op record on purpose: suppressed, with the
// reason on file.
//
//arrow:allow hotpath fixture: off the measured path, see the roadmap item that decides its fate
//arrow:hotpath
func LoggedOp(w wide) { // want:allowed `wide \(6 words\) passed by value in signature of hotpath LoggedOp`
	sink(w) // want:allowed `wide \(6 words\) passed by value in call argument of hotpath LoggedOp`
}

func cold() {
	//arrow:hotpath misplaced, does nothing here — want `arrow:hotpath must be in the doc comment of a function declaration`
	_ = 0
}
