// Package opt bounds the cost of the optimal offline queuing algorithm
// Opt of Section 3.3 — the denominator of the competitive ratio. Opt
// knows all requests, orders them to minimize total latency, and
// communicates over the graph G (not just the tree T).
//
// Exact computation is a minimum-cost Hamiltonian path under the
// asymmetric cost cOpt (eq. (4)), solved with Held–Karp for up to
// MaxExactRequests requests. Beyond that the package reports the
// Manhattan-MST weight under cM divided by 12 as an uncertified estimate,
// not a lower bound: the pairwise step cM <= 12·cO fails for requests
// spread out in time, and on complete24/sequential it reads 15 against an
// exact optimum of 10 (ROADMAP item 14 replaces it with a certified
// bound). Achievable upper bounds come from nearest-neighbour and 2-opt
// orders over cOpt.
package opt

import (
	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/tree"
	"repro/internal/tsp"
)

// Bounds summarizes what we can say about costOpt for a request set.
type Bounds struct {
	// Lower is the exact costOpt when Exact. Otherwise it is
	// ManhattanMST/12, an uncertified estimate that can exceed costOpt
	// (see the package doc and ROADMAP item 14).
	Lower int64
	// Upper is an achievable ordering's cost under cOpt: the minimum of
	// the NN and 2-opt improved orders (an upper bound on min_π Σ cOpt,
	// which itself lower-bounds nothing — it is reported to show the gap).
	Upper int64
	// Exact reports whether Lower is the true min_π Σ cOpt.
	Exact bool
	// ExactOrder is the optimal order when Exact.
	ExactOrder queuing.Order
	// ManhattanMST is the MST weight over requests ∪ {root} under
	// cM(dG). ManhattanMST/12 is not a certified lower bound on costOpt:
	// the Lemma 3.17 chain's step cM <= 12·cO fails for requests spread
	// out in time.
	ManhattanMST int64
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
// root (queue tail) at root. dist must be the graph metric dG; pass
// tree.Dist to bound the tree-restricted optimum instead.
func Compute(g *graph.Graph, root graph.NodeID, s queuing.Set, dist queuing.DistFunc) Bounds {
	var b Bounds
	n := len(s) + 1
	cOpt := CostAdapter(s, root, queuing.CO(dist))
	cM := CostAdapter(s, root, queuing.CM(dist))

	b.ManhattanMST = tsp.MSTWeight(n, cM)

	if len(s) <= MaxExactRequests {
		path, cost, err := tsp.OptimalPath(n, cOpt)
		if err == nil {
			b.Exact = true
			b.Lower = cost
			b.ExactOrder = orderFromPath(path)
		}
	}
	if !b.Exact {
		lb := b.ManhattanMST / 12
		if lb < 1 && len(s) > 0 {
			lb = 1
		}
		b.Lower = lb
	}

	_, nnCost := tsp.NearestNeighborPath(n, cOpt)
	_, optCost := tsp.TwoOptPath(n, cOpt)
	b.Upper = min(nnCost, optCost)
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
