// Package graph provides the weighted undirected graph substrate used by
// the arrow protocol reproduction: the communication network G = (V, E)
// from the paper, together with shortest-path machinery (dG), diameter and
// eccentricity computations, and the standard topology generators used in
// the experiments.
//
// Nodes are dense integer identifiers in [0, N). Edge weights are positive
// int64 latencies; the synchronous model of the paper corresponds to unit
// weights. All distances are exact (Dijkstra / BFS), not approximations.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// NodeID identifies a node in a Graph. IDs are dense in [0, NumNodes).
type NodeID int32

// Weight is an edge weight / distance in simulated time units.
type Weight = int64

// Infinity is the distance reported between disconnected nodes.
const Infinity Weight = 1<<62 - 1

// Edge is one endpoint record in an adjacency list.
type Edge struct {
	To NodeID
	W  Weight
}

// Graph is a weighted undirected graph with dense integer node IDs.
// The zero value is an empty graph; use New to allocate one with n nodes.
type Graph struct {
	adj      [][]Edge
	edges    int
	unitOnly bool // true while every added edge has weight 1
	// allPairs memoizes AllPairs until the next AddEdge. Sweep workers
	// share one *Graph, so it is atomic: racing callers may each compute
	// the matrix, and all of them compute the same one.
	allPairs atomic.Pointer[[][]Weight]
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]Edge, n), unitOnly: true}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Unit reports whether every edge added so far has weight 1.
func (g *Graph) Unit() bool { return g.unitOnly }

// AddEdge adds an undirected edge between u and v with weight w.
// It panics on self-loops, out-of-range nodes, or non-positive weights;
// these are programming errors, not runtime conditions.
func (g *Graph) AddEdge(u, v NodeID, w Weight) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	g.check(u)
	g.check(v)
	if w <= 0 {
		panic(fmt.Sprintf("graph: non-positive edge weight %d", w))
	}
	g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, W: w})
	g.edges++
	if w != 1 {
		g.unitOnly = false
	}
	g.allPairs.Store(nil)
}

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	g.check(u)
	g.check(v)
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of the edge (u, v), or (0, false) if no
// such edge exists. If parallel edges were added, the first is returned.
func (g *Graph) EdgeWeight(u, v NodeID) (Weight, bool) {
	g.check(u)
	g.check(v)
	for _, e := range g.adj[u] {
		if e.To == v {
			return e.W, true
		}
	}
	return 0, false
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []Edge {
	g.check(u)
	return g.adj[u]
}

func (g *Graph) check(u NodeID) {
	if int(u) < 0 || int(u) >= len(g.adj) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.adj)))
	}
}

// ErrDisconnected is returned by operations that require a connected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// Connected reports whether the graph is connected (true for empty and
// single-node graphs).
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// EdgeList returns all undirected edges once, as (u, v, w) with u < v.
func (g *Graph) EdgeList() []EdgeRecord {
	out := make([]EdgeRecord, 0, g.edges)
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if NodeID(u) < e.To {
				out = append(out, EdgeRecord{U: NodeID(u), V: e.To, W: e.W})
			}
		}
	}
	return out
}

// EdgeRecord is a materialized undirected edge.
type EdgeRecord struct {
	U, V NodeID
	W    Weight
}
