package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Complete returns the complete graph K_n with unit edge weights. This is
// the topology the paper's experiments assume for the IBM SP2 ("we could
// treat the network as a complete graph with all edges having the same
// weight").
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(NodeID(u), NodeID(v), 1)
		}
	}
	return g
}

// Path returns the path graph v0 - v1 - ... - v_{n-1} with unit weights.
// Its diameter is n-1. Paths are the topology of the Theorem 4.1 lower
// bound.
func Path(n int) *Graph {
	g := New(n)
	for u := 0; u+1 < n; u++ {
		g.AddEdge(NodeID(u), NodeID(u+1), 1)
	}
	return g
}

// Cycle returns the cycle graph C_n with unit weights.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: cycle needs at least 3 nodes")
	}
	g := Path(n)
	g.AddEdge(NodeID(n-1), 0, 1)
	return g
}

// Grid returns the rows x cols grid graph with unit weights. Node (r, c)
// has ID r*cols + c.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return g
}

// PathWithShortcuts builds the Theorem 4.2 gadget: a path v0..vD of unit
// edges, plus shortcut edges between v_{(i-1)s} and v_{is} of weight 1 for
// i = 1..D/s. On this graph the path itself is a spanning tree with
// stretch s. D must be a multiple of s.
func PathWithShortcuts(d int, s int) *Graph {
	if s < 1 || d%s != 0 {
		panic(fmt.Sprintf("graph: PathWithShortcuts requires s >= 1 dividing D; got D=%d s=%d", d, s))
	}
	g := Path(d + 1)
	if s == 1 {
		return g
	}
	for i := 1; i*s <= d; i++ {
		g.AddEdge(NodeID((i-1)*s), NodeID(i*s), 1)
	}
	return g
}

// RandomGeometric returns a random geometric graph: n points uniform in
// the unit square, an edge between points closer than radius, with weight
// ceil(dist/radius * maxW) in 1..maxW. A Hamiltonian backbone path is
// added (weight maxW) to guarantee connectivity, which keeps experiments
// well-defined at small radii.
func RandomGeometric(n int, radius float64, maxW Weight, seed int64) *Graph {
	if maxW < 1 {
		panic("graph: maxW must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			dist := math.Sqrt(dx*dx + dy*dy)
			if dist < radius {
				w := Weight(math.Ceil(dist / radius * float64(maxW)))
				if w < 1 {
					w = 1
				}
				g.AddEdge(NodeID(u), NodeID(v), w)
			}
		}
	}
	for u := 0; u+1 < n; u++ {
		if !g.HasEdge(NodeID(u), NodeID(u+1)) {
			g.AddEdge(NodeID(u), NodeID(u+1), maxW)
		}
	}
	return g
}

// GNP returns an Erdős–Rényi G(n, p) graph with unit weights, made
// connected by adding a Hamiltonian backbone path.
func GNP(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(u), NodeID(v), 1)
			}
		}
	}
	for u := 0; u+1 < n; u++ {
		if !g.HasEdge(NodeID(u), NodeID(u+1)) {
			g.AddEdge(NodeID(u), NodeID(u+1), 1)
		}
	}
	return g
}
