package tree

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// This file implements the spanning-tree selection problem discussed in
// the paper's Section 1.1: Peleg and Reshef showed that the arrow
// protocol's sequential overhead is minimized by a minimum communication
// spanning tree — a tree minimizing the expected distance between two
// nodes drawn from the request distribution. When the distribution p is
// known, E[dT(U, V)] for independent U, V ~ p decomposes per tree edge:
//
//	E[dT(U, V)] = 2 · Σ_e w_e · q_e · (1 − q_e)
//
// where q_e is the probability mass of the subtree hanging below edge e.
// That makes the objective O(n) to evaluate, which the local-search
// optimizer exploits.

// ExpectedPairCost returns E[dT(U, V)] for two independent draws from the
// distribution p over nodes — the sequential-regime expected per-request
// communication of the arrow protocol on this tree. p must have length
// NumNodes; it is normalized internally.
func ExpectedPairCost(t *Tree, p []float64) float64 {
	n := t.NumNodes()
	if len(p) != n {
		panic(fmt.Sprintf("tree: distribution of length %d for %d nodes", len(p), n))
	}
	var total float64
	for _, v := range p {
		if v < 0 {
			panic("tree: negative probability")
		}
		total += v
	}
	if total == 0 {
		return 0
	}
	// Subtree mass via a post-order accumulation over parents.
	mass := make([]float64, n)
	for v := 0; v < n; v++ {
		mass[v] = p[v] / total
	}
	// Process nodes in decreasing depth so children accumulate first.
	order := make([]graph.NodeID, n)
	for v := range order {
		order[v] = graph.NodeID(v)
	}
	sort.Slice(order, func(i, j int) bool { return t.depth[order[i]] > t.depth[order[j]] })
	var cost float64
	for _, v := range order {
		if v == t.root {
			continue
		}
		q := mass[v]
		cost += 2 * float64(t.edgeW(v)) * q * (1 - q)
		mass[t.parent[v]] += q
	}
	return cost
}

// WeightedMedian returns the node minimizing Σ_v p_v · dG(node, v) — the
// natural root for a demand-aware shortest-path tree.
func WeightedMedian(g *graph.Graph, p []float64) graph.NodeID {
	n := g.NumNodes()
	if len(p) != n {
		panic("tree: distribution length mismatch")
	}
	best := graph.NodeID(0)
	bestCost := -1.0
	for u := 0; u < n; u++ {
		dist := g.ShortestFrom(graph.NodeID(u))
		var c float64
		for v := 0; v < n; v++ {
			if dist[v] == graph.Infinity {
				c = -1
				break
			}
			c += p[v] * float64(dist[v])
		}
		if c >= 0 && (bestCost < 0 || c < bestCost) {
			bestCost = c
			best = graph.NodeID(u)
		}
	}
	return best
}

// CommTree builds a demand-aware spanning tree of g for the request
// distribution p: it starts from the shortest-path tree rooted at the
// weighted median and hill-climbs over edge swaps (remove a tree edge,
// reconnect the separated component through the best graph edge across
// the cut) until no swap reduces ExpectedPairCost or maxIters passes
// complete. The result is a heuristic minimum communication spanning
// tree in the sense of Hu [13] / Peleg–Reshef [18].
func CommTree(g *graph.Graph, p []float64, maxIters int) (*Tree, error) {
	if maxIters < 1 {
		maxIters = 1
	}
	median := WeightedMedian(g, p)
	t, err := ShortestPathTree(g, median)
	if err != nil {
		return nil, err
	}
	cur := ExpectedPairCost(t, p)
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		// For each tree edge (v, parent(v)), cutting it splits the nodes
		// into v's subtree and the rest; try every graph edge across the
		// cut as a replacement.
		for v := 0; v < t.NumNodes(); v++ {
			node := graph.NodeID(v)
			if node == t.root {
				continue
			}
			bestTree := (*Tree)(nil)
			bestCost := cur
			for _, rec := range g.EdgeList() {
				if t.contains(node, rec.U) == t.contains(node, rec.V) {
					continue // not across the cut
				}
				cand, err := t.swapEdge(node, rec)
				if err != nil {
					continue
				}
				if c := ExpectedPairCost(cand, p); c < bestCost-1e-12 {
					bestCost = c
					bestTree = cand
				}
			}
			if bestTree != nil {
				t = bestTree
				cur = bestCost
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return t, nil
}

// swapEdge returns a new tree with the edge (cut, parent(cut)) removed
// and the graph edge rec inserted instead. rec must cross the cut.
func (t *Tree) swapEdge(cut graph.NodeID, rec graph.EdgeRecord) (*Tree, error) {
	// Build adjacency of the new tree: all edges except cut-parent, plus
	// rec. Then root at the old root and derive parents.
	type edge struct {
		to graph.NodeID
		w  graph.Weight
	}
	n := t.NumNodes()
	adj := make([][]edge, n)
	for v := 0; v < n; v++ {
		node := graph.NodeID(v)
		if node == t.root || node == cut {
			continue
		}
		adj[node] = append(adj[node], edge{to: t.parent[node], w: t.edgeW(node)})
		adj[t.parent[node]] = append(adj[t.parent[node]], edge{to: node, w: t.edgeW(node)})
	}
	adj[rec.U] = append(adj[rec.U], edge{to: rec.V, w: rec.W})
	adj[rec.V] = append(adj[rec.V], edge{to: rec.U, w: rec.W})

	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	seen := make([]bool, n)
	parent[t.root] = t.root
	seen[t.root] = true
	stack := []graph.NodeID{t.root}
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				parent[e.to] = u
				pw[e.to] = e.w
				count++
				stack = append(stack, e.to)
			}
		}
	}
	if count != n {
		return nil, fmt.Errorf("tree: swap disconnected the tree")
	}
	return FromParents(t.root, parent, pw)
}
