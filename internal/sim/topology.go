package sim

import (
	"repro/internal/graph"
	"repro/internal/tree"
)

// TreeTopology restricts communication to spanning-tree neighbours — the
// arrow protocol's constraint ("the pointers can point only to a neighbor
// in the spanning tree"). Any tree.Nav works: the explicit *tree.Tree (a
// Walker plus adjacency and Euler-tour routing), or the bare Walker and
// GridNav navigators the scale tier uses at millions of nodes.
type TreeTopology struct{ T tree.Nav }

// Latency implements Topology: only tree edges are legal. The check uses
// the parent relation — O(1), exactly as LinkIndex does — instead of
// scanning the neighbor list, which is O(degree) and O(n) at the center
// of a star tree. The simulator itself does not call it per message: New
// resolves a TreeTopology into the flat link table below and send reads
// that. Latency, Hops and LinkIndex remain the definition the table is
// tested against, and what fault-plan validation and wrappers use.
func (t TreeTopology) Latency(u, v graph.NodeID) (graph.Weight, bool) {
	if u == v {
		return 0, false
	}
	if t.T.Parent(u) == v {
		return t.T.ParentWeight(u), true
	}
	if t.T.Parent(v) == u {
		return t.T.ParentWeight(v), true
	}
	return 0, false
}

// linkTable resolves the tree into the two flat arrays send decides
// every tree link from: parent[v] (the root its own parent) and weight[v],
// the weight of v's parent edge (never read for the root), nil when every
// edge has weight 1. A navigator that already holds such arrays —
// *tree.Walker, *tree.Tree — lends them through ParentArrays at no cost;
// any other Nav (GridNav, a decorator) is asked n times, once.
func (t TreeTopology) linkTable() (parent []graph.NodeID, weight []graph.Weight) {
	if pa, ok := t.T.(interface {
		ParentArrays() ([]graph.NodeID, []graph.Weight)
	}); ok {
		return pa.ParentArrays()
	}
	n := t.T.NumNodes()
	parent = make([]graph.NodeID, n)
	weight = make([]graph.Weight, n)
	unit := true
	for v := range parent {
		node := graph.NodeID(v)
		parent[v] = t.T.Parent(node)
		weight[v] = t.T.ParentWeight(node)
		unit = unit && (weight[v] == 1 || parent[v] == node)
	}
	if unit {
		weight = nil
	}
	return parent, weight
}

// Hops implements Topology: tree edges are single physical links.
func (t TreeTopology) Hops(u, v graph.NodeID) int { return 1 }

// NumNodes implements Topology.
func (t TreeTopology) NumNodes() int { return t.T.NumNodes() }

// NumLinks implements LinkIndexer: every node owns two slots, one per
// direction of its parent edge (the root's slots stay unused).
func (t TreeTopology) NumLinks() int { return 2 * t.T.NumNodes() }

// LinkIndex implements LinkIndexer. A legal tree link connects a child
// with its parent: the child->parent direction is slot 2*child, the
// parent->child direction slot 2*child+1.
func (t TreeTopology) LinkIndex(u, v graph.NodeID) int {
	if t.T.Parent(u) == v {
		return 2 * int(u)
	}
	return 2*int(v) + 1
}

// DirectTopology allows communication along graph edges only.
type DirectTopology struct{ G *graph.Graph }

// Latency implements Topology.
func (t DirectTopology) Latency(u, v graph.NodeID) (graph.Weight, bool) {
	return t.G.EdgeWeight(u, v)
}

// Hops implements Topology.
func (t DirectTopology) Hops(u, v graph.NodeID) int { return 1 }

// NumNodes implements Topology.
func (t DirectTopology) NumNodes() int { return t.G.NumNodes() }

// MetricTopology allows any pair of nodes to exchange messages with
// latency dG(u, v), modelling protocols that route over shortest paths
// (the centralized baseline, NTA). Hop accounting charges the
// shortest path's edge count per logical message.
type MetricTopology struct {
	dist [][]graph.Weight // the graph's memoized AllPairs matrix
	hops [][]int32        // nil on unit graphs, where hops equal dist
}

// NewMetricTopology takes g's all-pairs distances, computed once per
// graph and shared with every other caller of g.AllPairs. A unit graph
// needs nothing else: the hop count of a shortest path is its length. A
// weighted graph also gets a hop matrix, the edge counts of the paths
// ShortestPath returns, from one shortest-path tree per source.
func NewMetricTopology(g *graph.Graph) *MetricTopology {
	m := &MetricTopology{dist: g.AllPairs()}
	if g.Unit() {
		return m
	}
	n := g.NumNodes()
	m.hops = make([][]int32, n)
	for i := range m.hops {
		prev := g.ShortestTree(graph.NodeID(i))
		hops := make([]int32, n)
		// hops[v] is one more than its predecessor's; 0 marks the source,
		// an unreachable node, or a node not yet counted.
		var count func(v graph.NodeID) int32
		count = func(v graph.NodeID) int32 {
			if p := prev[v]; p != -1 && hops[v] == 0 {
				hops[v] = count(p) + 1
			}
			return hops[v]
		}
		for j := range hops {
			count(graph.NodeID(j))
		}
		m.hops[i] = hops
	}
	return m
}

// Latency implements Topology.
func (m *MetricTopology) Latency(u, v graph.NodeID) (graph.Weight, bool) {
	d := m.dist[u][v]
	if d == graph.Infinity {
		return 0, false
	}
	return d, true
}

// Hops implements Topology. Disconnected pairs count 0 hops.
func (m *MetricTopology) Hops(u, v graph.NodeID) int {
	if m.hops != nil {
		return int(m.hops[u][v])
	}
	if d := m.dist[u][v]; d != graph.Infinity {
		return int(d)
	}
	return 0
}

// NumNodes implements Topology.
func (m *MetricTopology) NumNodes() int { return len(m.dist) }

// NumLinks implements LinkIndexer: the metric allows any ordered pair, so
// links are indexed u*n + v. An n² link space gets the expiring clock,
// keyed by the endpoints (see linkClock), so send never asks for the
// index.
func (m *MetricTopology) NumLinks() int { return len(m.dist) * len(m.dist) }

// LinkIndex implements LinkIndexer.
func (m *MetricTopology) LinkIndex(u, v graph.NodeID) int {
	return int(u)*len(m.dist) + int(v)
}

// CompleteTopology is the implicit counterpart of
// NewMetricTopology(graph.Complete(n)): every ordered pair of distinct
// nodes is connected by a direct link of weight W, with no O(n²)
// distance matrix behind it. It is what lets the complete-graph
// protocols (centralized, NTA) run at a million nodes — the dense
// metric tables alone would be terabytes. NumLinks is still nominally
// n², so at every n the simulator keeps the per-link clocks in a table
// of the links with messages in flight rather than a flat slice.
type CompleteTopology struct {
	N int
	W graph.Weight
}

// NewCompleteTopology returns the implicit complete metric on n nodes
// with unit edge weights.
func NewCompleteTopology(n int) CompleteTopology { return CompleteTopology{N: n, W: 1} }

// Latency implements Topology. Like the materialized metric it reports
// u == v as connected at distance 0 (drivers guard self-sends
// themselves), so the two are interchangeable pair for pair.
func (c CompleteTopology) Latency(u, v graph.NodeID) (graph.Weight, bool) {
	if u == v {
		return 0, true
	}
	return c.W, true
}

// Hops implements Topology: every distinct pair is one physical link.
func (c CompleteTopology) Hops(u, v graph.NodeID) int {
	if u == v {
		return 0
	}
	return 1
}

// NumNodes implements Topology.
func (c CompleteTopology) NumNodes() int { return c.N }

// NumLinks implements LinkIndexer.
func (c CompleteTopology) NumLinks() int { return c.N * c.N }

// LinkIndex implements LinkIndexer.
func (c CompleteTopology) LinkIndex(u, v graph.NodeID) int { return int(u)*c.N + int(v) }
