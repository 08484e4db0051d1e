// Package opt bounds the cost of the optimal offline queuing algorithm
// Opt of Section 3.3 — the denominator of the competitive ratio. Opt
// knows all requests, orders them to minimize total latency, and
// communicates over the graph G (not just the tree T).
//
// costOpt is a minimum-cost Hamiltonian path under the asymmetric cost
// cOpt (eq. (4)), solved exactly with Held–Karp for up to
// MaxExactRequests requests. Beyond that the package certifies no lower
// bound: it reports the cost of a 2-opt order over cOpt, which is
// achievable and so bounds costOpt from above.
package opt

import (
	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/tree"
	"repro/internal/tsp"
)

// Bounds summarizes what we can say about costOpt for a request set.
type Bounds struct {
	// Lower is the exact costOpt when Exact and 0 otherwise.
	Lower int64
	// Upper is the cost under cOpt of the 2-opt order grown from the
	// nearest-neighbour one: achievable, so an upper bound on costOpt.
	Upper int64
	// Exact reports whether Lower is the true min_π Σ cOpt.
	Exact bool
	// ExactOrder is the optimal order when Exact.
	ExactOrder queuing.Order
}

// Best returns the competitive ratio's denominator: costOpt when Exact,
// Upper otherwise, so a ratio over an uncertified optimum can only read
// low.
func (b Bounds) Best() int64 {
	if b.Exact {
		return b.Lower
	}
	return b.Upper
}

// MaxExactRequests is the largest request count solved exactly.
const MaxExactRequests = tsp.MaxExactN - 1

// CostAdapter exposes a queuing cost over {root} ∪ R as a tsp.Cost with
// point 0 = the virtual root request and point i = request i−1. It is the
// bridge between the queuing cost model and the TSP machinery.
func CostAdapter(s queuing.Set, root graph.NodeID, c queuing.CostFunc) tsp.Cost {
	r0 := queuing.RootRequest(root)
	get := func(i int) queuing.Request {
		if i == 0 {
			return r0
		}
		return s[i-1]
	}
	return func(i, j int) int64 { return c(get(i), get(j)) }
}

// orderFromPath converts a tsp path (starting at point 0 = root) to a
// queuing.Order over request IDs.
func orderFromPath(path []int) queuing.Order {
	o := make(queuing.Order, 0, len(path)-1)
	for _, p := range path[1:] {
		o = append(o, p-1)
	}
	return o
}

// Compute bounds costOpt for request set s over graph g with initial
// root (queue tail) at root, under g's metric dG.
func Compute(g *graph.Graph, root graph.NodeID, s queuing.Set) Bounds {
	var b Bounds
	n := len(s) + 1
	cOpt := CostAdapter(s, root, queuing.CO(DistOfGraph(g)))
	if len(s) <= MaxExactRequests {
		path, cost, err := tsp.OptimalPath(n, cOpt)
		if err == nil {
			b.Exact = true
			b.Lower = cost
			b.ExactOrder = orderFromPath(path)
		}
	}
	// 2-opt starts from the nearest-neighbour order and takes only
	// strictly improving reversals, so it never costs more than NN.
	_, b.Upper = tsp.TwoOptPath(n, cOpt)
	return b
}

// DistOfGraph returns a DistFunc backed by g's all-pairs matrix.
func DistOfGraph(g *graph.Graph) queuing.DistFunc {
	d := g.AllPairs()
	return func(u, v graph.NodeID) graph.Weight { return d[u][v] }
}

// DistOfTree returns a DistFunc for dT.
func DistOfTree(t *tree.Tree) queuing.DistFunc {
	return func(u, v graph.NodeID) graph.Weight { return t.Dist(u, v) }
}

// Ratio returns numerator/denominator as float64, or 0 when the
// denominator is 0 (degenerate empty workloads).
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
