// Package tree implements the pre-selected spanning tree T the arrow
// protocol operates on: tree construction (BFS tree, Prim and Kruskal
// MSTs, balanced binary, path, star), exact tree distances dT via binary
// lifting LCA, next-hop routing via Euler-tour intervals, tree diameter,
// and the stretch s = max dT/dG of T relative to its graph (Definition
// 3.1 in the paper).
package tree

import (
	"fmt"

	"repro/internal/graph"
)

// Tree is a rooted spanning tree over nodes [0, N) with weighted edges.
// It supports O(log n) distance queries dT(u, v) after O(n log n)
// preprocessing.
type Tree struct {
	n      int
	root   graph.NodeID
	parent []graph.NodeID // parent[root] == root
	pw     []graph.Weight // weight of edge to parent; 0 for root
	adj    [][]graph.Edge // tree adjacency (children + parent)

	depthW []graph.Weight // weighted depth from root
	depth  []int32        // unweighted depth from root (for LCA)
	up     [][]graph.NodeID
	logN   int

	// Euler-tour intervals (for NextHop): v's subtree is the preorder
	// range [tin[v], tin[v]+size[v]), and kids[kidOff[v]:kidOff[v+1]]
	// lists v's children in ascending tin.
	tin    []int32
	size   []int32
	kidOff []int32
	kids   []graph.NodeID
}

// FromParents builds a tree from a parent array. parent[root] must equal
// root; pw[root] is ignored. It validates that the structure is a single
// tree spanning all nodes.
func FromParents(root graph.NodeID, parent []graph.NodeID, pw []graph.Weight) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty parent array")
	}
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("tree: root %d out of range", root)
	}
	if parent[root] != root {
		return nil, fmt.Errorf("tree: parent[root] must be root itself")
	}
	if len(pw) != n {
		return nil, fmt.Errorf("tree: parent weights length %d != %d", len(pw), n)
	}
	t := &Tree{
		n:      n,
		root:   root,
		parent: append([]graph.NodeID(nil), parent...),
		pw:     append([]graph.Weight(nil), pw...),
		adj:    make([][]graph.Edge, n),
	}
	for v := 0; v < n; v++ {
		if v == int(root) {
			continue
		}
		p := parent[v]
		if int(p) < 0 || int(p) >= n || p == graph.NodeID(v) {
			return nil, fmt.Errorf("tree: invalid parent %d of node %d", p, v)
		}
		if pw[v] <= 0 {
			return nil, fmt.Errorf("tree: non-positive edge weight %d at node %d", pw[v], v)
		}
		t.adj[v] = append(t.adj[v], graph.Edge{To: p, W: pw[v]})
		t.adj[p] = append(t.adj[p], graph.Edge{To: graph.NodeID(v), W: pw[v]})
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustFromParents is FromParents that panics on error; for use with
// generator code that constructs parents programmatically.
func MustFromParents(root graph.NodeID, parent []graph.NodeID, pw []graph.Weight) *Tree {
	t, err := FromParents(root, parent, pw)
	if err != nil {
		panic(err)
	}
	return t
}

// index computes depths, the binary-lifting table and the Euler-tour
// intervals, verifying reachability of every node from the root.
func (t *Tree) index() error {
	n := t.n
	t.depthW = make([]graph.Weight, n)
	t.depth = make([]int32, n)
	order := make([]graph.NodeID, 0, n)
	seen := make([]bool, n)
	order = append(order, t.root)
	seen[t.root] = true
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, e := range t.adj[u] {
			if !seen[e.To] {
				if t.parent[e.To] != u {
					return fmt.Errorf("tree: node %d reached from non-parent %d", e.To, u)
				}
				seen[e.To] = true
				t.depthW[e.To] = t.depthW[u] + e.W
				t.depth[e.To] = t.depth[u] + 1
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		return fmt.Errorf("tree: only %d of %d nodes reachable from root", len(order), n)
	}
	t.euler(order)
	t.logN = 1
	for 1<<t.logN < n {
		t.logN++
	}
	t.up = make([][]graph.NodeID, t.logN+1)
	t.up[0] = t.parent
	for k := 1; k <= t.logN; k++ {
		t.up[k] = make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			t.up[k][v] = t.up[k-1][t.up[k-1][v]]
		}
	}
	return nil
}

// euler numbers the nodes in preorder. Subtree sizes come from a
// reverse sweep of the BFS order; the children lists are filled in BFS
// order too, so each lists its nodes in the order their entry times are
// then handed out, each child's after its elder siblings' subtrees. No
// recursion, so a path of any length is fine.
func (t *Tree) euler(order []graph.NodeID) {
	n := t.n
	t.tin = make([]int32, n)
	t.size = make([]int32, n)
	t.kidOff = make([]int32, n+1)
	t.kids = make([]graph.NodeID, n-1)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		t.size[v]++
		if v != t.root {
			t.size[t.parent[v]] += t.size[v]
			t.kidOff[t.parent[v]+1]++
		}
	}
	for v := 0; v < n; v++ {
		t.kidOff[v+1] += t.kidOff[v]
	}
	fill := append([]int32(nil), t.kidOff[:n]...)
	for _, v := range order[1:] {
		p := t.parent[v]
		t.kids[fill[p]] = v
		fill[p]++
	}
	for _, u := range order {
		at := t.tin[u] + 1
		for _, c := range t.kids[t.kidOff[u]:t.kidOff[u+1]] {
			t.tin[c] = at
			at += t.size[c]
		}
	}
}

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return t.n }

// Root returns the tree root used for rooting (not the protocol sink).
func (t *Tree) Root() graph.NodeID { return t.root }

// Parent returns v's parent (the root is its own parent).
func (t *Tree) Parent(v graph.NodeID) graph.NodeID { return t.parent[v] }

// ParentWeight returns the weight of v's parent edge (0 for the root).
func (t *Tree) ParentWeight(v graph.NodeID) graph.Weight { return t.pw[v] }

// ParentArrays lends the tree's flat parent and parent-edge-weight
// arrays, indexed by node (see Walker.ParentArrays). Read-only.
func (t *Tree) ParentArrays() (parent []graph.NodeID, weight []graph.Weight) {
	return t.parent, t.pw
}

// Neighbors returns v's tree-adjacent nodes with edge weights. The slice
// is owned by the tree and must not be modified.
func (t *Tree) Neighbors(v graph.NodeID) []graph.Edge { return t.adj[v] }

// Hops returns the number of tree edges between u and v.
func (t *Tree) Hops(u, v graph.NodeID) int {
	l := t.LCA(u, v)
	return int(t.depth[u] + t.depth[v] - 2*t.depth[l])
}

// LCA returns the lowest common ancestor of u and v.
func (t *Tree) LCA(u, v graph.NodeID) graph.NodeID {
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := t.depth[u] - t.depth[v]
	for k := 0; diff > 0; k++ {
		if diff&1 == 1 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return u
	}
	for k := t.logN; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u = t.up[k][u]
			v = t.up[k][v]
		}
	}
	return t.parent[u]
}

// Dist returns the weighted tree distance dT(u, v).
func (t *Tree) Dist(u, v graph.NodeID) graph.Weight {
	l := t.LCA(u, v)
	return t.depthW[u] + t.depthW[v] - 2*t.depthW[l]
}

// Diameter returns the weighted diameter of the tree, computed with two
// breadth/depth sweeps (the classic double-sweep is exact on trees).
func (t *Tree) Diameter() graph.Weight {
	if t.n == 1 {
		return 0
	}
	far, _ := t.farthestFrom(t.root)
	_, d := t.farthestFrom(far)
	return d
}

func (t *Tree) farthestFrom(src graph.NodeID) (graph.NodeID, graph.Weight) {
	dist := make([]graph.Weight, t.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	stack := []graph.NodeID{src}
	best, bestD := src, graph.Weight(0)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.adj[u] {
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
	if g.NumNodes() != t.n {
		panic("tree: stretch against graph of different size")
	}
	best := 1.0
	pair := [2]graph.NodeID{0, 0}
	for u := 0; u < t.n; u++ {
		dg := g.ShortestFrom(graph.NodeID(u))
		for v := u + 1; v < t.n; v++ {
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
// equals the full stretch and is much cheaper: O(m log n).
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
	g := graph.New(t.n)
	for v := 0; v < t.n; v++ {
		if graph.NodeID(v) == t.root {
			continue
		}
		g.AddEdge(graph.NodeID(v), t.parent[v], t.pw[v])
	}
	return g
}
