// Package tree implements the pre-selected spanning tree T the arrow
// protocol operates on: tree construction (BFS tree, Prim MST,
// shortest-path tree, balanced binary, path, star), tree distances dT by
// parent walks, next-hop routing via Euler-tour intervals, tree diameter,
// and the stretch s = max dT/dG of T relative to its graph (Definition
// 3.1 in the paper).
package tree

import (
	"slices"

	"repro/internal/graph"
)

// Tree is a rooted spanning tree over nodes [0, N) with weighted edges.
// It is a Walker — parent pointers, hop depths and dT by parent walks —
// plus what only an explicit tree needs: the adjacency behind Neighbors
// and Diameter, and the Euler-tour intervals behind NextHop and its O(1)
// ancestor test. State is O(n).
type Tree struct {
	Walker

	// adj[adjOff[v]:adjOff[v+1]] lists v's tree neighbours.
	adjOff []int32
	adj    []graph.Edge

	// Euler-tour intervals (for NextHop): v's subtree is the preorder
	// range [tin[v], tin[v]+size[v]), and kids[kidOff[v]:kidOff[v+1]]
	// lists v's children in ascending tin.
	tin    []int32
	size   []int32
	kidOff []int32
	kids   []graph.NodeID
}

// FromParents builds a tree from a parent array. It accepts exactly what
// WalkerFromParents accepts — parent[root] == root, pw[root] ignored, nil
// pw for unit weights — and keeps copies of both arrays.
func FromParents(root graph.NodeID, parent []graph.NodeID, pw []graph.Weight) (*Tree, error) {
	w, err := WalkerFromParents(root, slices.Clone(parent), slices.Clone(pw))
	if err != nil {
		return nil, err
	}
	return fromWalker(w), nil
}

// fromWalker adds the adjacency and the Euler-tour intervals to a
// validated walker. Each node's neighbours are listed in the order its
// edges appear in a sweep over the non-root nodes in index order; its
// children thus come in ascending index, and entry times are handed out
// in that order too, each child after its elder siblings' subtrees. No
// recursion, so a path of any length is fine.
func fromWalker(w *Walker) *Tree {
	n := w.NumNodes()
	t := &Tree{
		Walker: *w,
		adjOff: make([]int32, n+1),
		adj:    make([]graph.Edge, 2*(n-1)),
		tin:    make([]int32, n),
		size:   make([]int32, n),
		kidOff: make([]int32, n+1),
		kids:   make([]graph.NodeID, n-1),
	}
	for v, p := range t.parent {
		if graph.NodeID(v) != t.root {
			t.adjOff[v+1]++
			t.adjOff[p+1]++
			t.kidOff[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		t.adjOff[v+1] += t.adjOff[v]
		t.kidOff[v+1] += t.kidOff[v]
	}
	adjAt, kidAt := slices.Clone(t.adjOff[:n]), slices.Clone(t.kidOff[:n])
	for v, p := range t.parent {
		if c := graph.NodeID(v); c != t.root {
			wt := t.edgeW(c)
			t.adj[adjAt[c]] = graph.Edge{To: p, W: wt}
			t.adj[adjAt[p]] = graph.Edge{To: c, W: wt}
			t.kids[kidAt[p]] = c
			adjAt[c]++
			adjAt[p]++
			kidAt[p]++
		}
	}
	order := append(make([]graph.NodeID, 0, n), t.root)
	for i := 0; i < len(order); i++ {
		order = append(order, t.children(order[i])...)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		t.size[v]++
		if v != t.root {
			t.size[t.parent[v]] += t.size[v]
		}
	}
	for _, u := range order {
		at := t.tin[u] + 1
		for _, c := range t.children(u) {
			t.tin[c] = at
			at += t.size[c]
		}
	}
	return t
}

// children lists v's children in ascending entry time.
func (t *Tree) children(v graph.NodeID) []graph.NodeID {
	return t.kids[t.kidOff[v]:t.kidOff[v+1]]
}

// contains reports whether v lies in u's subtree (u included).
func (t *Tree) contains(u, v graph.NodeID) bool {
	return uint32(t.tin[v]-t.tin[u]) < uint32(t.size[u])
}

// Neighbors returns v's tree-adjacent nodes with edge weights. The slice
// is owned by the tree and must not be modified.
func (t *Tree) Neighbors(v graph.NodeID) []graph.Edge {
	lo, hi := t.adjOff[v], t.adjOff[v+1]
	return t.adj[lo:hi:hi]
}

// Hops returns the number of tree edges between u and v: u climbs to
// the lowest ancestor whose subtree holds v, then the path descends.
func (t *Tree) Hops(u, v graph.NodeID) int {
	up := 0
	for !t.contains(u, v) {
		u = t.parent[u]
		up++
	}
	return up + int(t.depth[v]-t.depth[u])
}

// Diameter returns the weighted diameter of the tree, computed with two
// breadth/depth sweeps (the classic double-sweep is exact on trees).
func (t *Tree) Diameter() graph.Weight {
	if t.NumNodes() == 1 {
		return 0
	}
	far, _ := t.farthestFrom(t.root)
	_, d := t.farthestFrom(far)
	return d
}

func (t *Tree) farthestFrom(src graph.NodeID) (graph.NodeID, graph.Weight) {
	dist := make([]graph.Weight, t.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	stack := []graph.NodeID{src}
	best, bestD := src, graph.Weight(0)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.Neighbors(u) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + e.W
				if dist[e.To] > bestD {
					bestD = dist[e.To]
					best = e.To
				}
				stack = append(stack, e.To)
			}
		}
	}
	return best, bestD
}

// Stretch returns s = max over node pairs of dT(u,v)/dG(u,v), the stretch
// of this tree with respect to g (Definition 3.1). It is exact and costs
// an all-pairs shortest-path computation on g. The second return value is
// a pair realizing the maximum.
func (t *Tree) Stretch(g *graph.Graph) (float64, [2]graph.NodeID) {
	n := t.NumNodes()
	if g.NumNodes() != n {
		panic("tree: stretch against graph of different size")
	}
	best := 1.0
	pair := [2]graph.NodeID{0, 0}
	for u := 0; u < n; u++ {
		dg := g.ShortestFrom(graph.NodeID(u))
		for v := u + 1; v < n; v++ {
			if dg[v] == graph.Infinity || dg[v] == 0 {
				continue
			}
			r := float64(t.Dist(graph.NodeID(u), graph.NodeID(v))) / float64(dg[v])
			if r > best {
				best = r
				pair = [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)}
			}
		}
	}
	return best, pair
}

// EdgeStretch returns the maximum stretch restricted to graph edges
// (max over edges (u,v) of dT(u,v)/w(u,v)). For metric-like graphs this
// equals the full stretch and is much cheaper: m dT queries.
func (t *Tree) EdgeStretch(g *graph.Graph) float64 {
	best := 1.0
	for _, e := range g.EdgeList() {
		r := float64(t.Dist(e.U, e.V)) / float64(e.W)
		if r > best {
			best = r
		}
	}
	return best
}

// ToGraph converts the tree to a graph.Graph containing exactly the tree
// edges. Useful when a protocol should run with G = T.
func (t *Tree) ToGraph() *graph.Graph {
	g := graph.New(t.NumNodes())
	for v, p := range t.parent {
		if c := graph.NodeID(v); c != t.root {
			g.AddEdge(c, p, t.edgeW(c))
		}
	}
	return g
}
