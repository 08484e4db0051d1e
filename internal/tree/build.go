package tree

import (
	//arrow:allow schedorder Prim/Dijkstra priority queues order graph edges, not simulator events
	"container/heap"
	"sort"

	"repro/internal/graph"
)

// BFS returns the breadth-first spanning tree of g rooted at root. Edge
// weights are inherited from g. On unit-weight graphs the BFS tree is a
// shortest-path tree, which bounds its diameter by twice the graph's
// radius.
func BFS(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	n := g.NumNodes()
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	seen := make([]bool, n)
	parent[root] = root
	seen[root] = true
	queue := []graph.NodeID{root}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range g.Neighbors(u) {
			if !seen[e.To] {
				seen[e.To] = true
				parent[e.To] = u
				pw[e.To] = e.W
				queue = append(queue, e.To)
			}
		}
	}
	return FromParents(root, parent, pw)
}

// ShortestPathTree returns the Dijkstra shortest-path spanning tree of g
// rooted at root: dT(root, v) == dG(root, v) for every v.
func ShortestPathTree(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	n := g.NumNodes()
	dist := make([]graph.Weight, n)
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[root] = 0
	parent[root] = root
	q := &nodePQ{{node: root, key: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(nodeItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.Neighbors(u) {
			if nd := dist[u] + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				parent[e.To] = u
				pw[e.To] = e.W
				heap.Push(q, nodeItem{node: e.To, key: nd})
			}
		}
	}
	return FromParents(root, parent, pw)
}

// PrimMST returns a minimum spanning tree of g rooted at root, computed
// with Prim's algorithm and a binary heap.
func PrimMST(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	n := g.NumNodes()
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	best := make([]graph.Weight, n)
	inTree := make([]bool, n)
	for i := range best {
		best[i] = graph.Infinity
	}
	best[root] = 0
	parent[root] = root
	q := &nodePQ{{node: root, key: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(nodeItem)
		u := it.node
		if inTree[u] {
			continue
		}
		inTree[u] = true
		for _, e := range g.Neighbors(u) {
			if !inTree[e.To] && e.W < best[e.To] {
				best[e.To] = e.W
				parent[e.To] = u
				pw[e.To] = e.W
				heap.Push(q, nodeItem{node: e.To, key: e.W})
			}
		}
	}
	return FromParents(root, parent, pw)
}

// KruskalMST returns a minimum spanning tree of g computed with Kruskal's
// algorithm (sorted edges + union-find), rooted at root. Prim and Kruskal
// may differ on equal-weight ties; both are exact MSTs.
func KruskalMST(g *graph.Graph, root graph.NodeID) (*Tree, error) {
	n := g.NumNodes()
	edges := g.EdgeList()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].W != edges[j].W {
			return edges[i].W < edges[j].W
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	uf := NewUnionFind(n)
	adj := make([][]graph.Edge, n)
	for _, e := range edges {
		if uf.Union(int(e.U), int(e.V)) {
			adj[e.U] = append(adj[e.U], graph.Edge{To: e.V, W: e.W})
			adj[e.V] = append(adj[e.V], graph.Edge{To: e.U, W: e.W})
		}
	}
	// Root the forest at root via DFS to obtain parents.
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	seen := make([]bool, n)
	parent[root] = root
	seen[root] = true
	stack := []graph.NodeID{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				parent[e.To] = u
				pw[e.To] = e.W
				stack = append(stack, e.To)
			}
		}
	}
	return FromParents(root, parent, pw)
}

// BalancedBinary returns the perfectly balanced binary tree on n nodes
// used in the paper's experiments (Section 5): node i's children are
// 2i+1 and 2i+2, all edges weight 1, root 0. On a complete graph this
// tree has depth floor(log2 n).
func BalancedBinary(n int) *Tree {
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	parent[0] = 0
	for v := 1; v < n; v++ {
		parent[v] = graph.NodeID((v - 1) / 2)
		pw[v] = 1
	}
	return MustFromParents(0, parent, pw)
}

// PathTree returns the path 0-1-...-n-1 as a tree rooted at 0 with unit
// weights. This is the spanning tree of the lower-bound constructions.
func PathTree(n int) *Tree {
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	parent[0] = 0
	for v := 1; v < n; v++ {
		parent[v] = graph.NodeID(v - 1)
		pw[v] = 1
	}
	return MustFromParents(0, parent, pw)
}

// StarTree returns the star with center 0 (unit weights): the tree
// behind a "home-based" topology, diameter 2.
func StarTree(n int) *Tree {
	parent := make([]graph.NodeID, n)
	pw := make([]graph.Weight, n)
	parent[0] = 0
	for v := 1; v < n; v++ {
		parent[v] = 0
		pw[v] = 1
	}
	return MustFromParents(0, parent, pw)
}

// UnionFind is a disjoint-set structure with union by rank and path
// compression, exposed for reuse by other packages.
type UnionFind struct {
	parent []int32
	rank   []int8
	sets   int
}

// NewUnionFind returns a union-find over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), rank: make([]int8, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != int32(x) {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = int(uf.parent[x])
	}
	return x
}

// Union merges the sets of x and y; it reports whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = int32(rx)
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

type nodeItem struct {
	node graph.NodeID
	key  graph.Weight
}

type nodePQ []nodeItem

func (q nodePQ) Len() int           { return len(q) }
func (q nodePQ) Less(i, j int) bool { return q[i].key < q[j].key }
func (q nodePQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x any)        { *q = append(*q, x.(nodeItem)) }
func (q *nodePQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
