package tree

import (
	//arrow:allow schedorder Prim/Dijkstra priority queues order graph edges, not simulator events
	"container/heap"

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

// BalancedBinary returns the perfectly balanced binary tree on n nodes
// used in the paper's experiments (Section 5): node i's children are
// 2i+1 and 2i+2, all edges weight 1, root 0. On a complete graph this
// tree has depth floor(log2 n).
func BalancedBinary(n int) *Tree { return fromWalker(BinaryWalker(n)) }

// PathTree returns the path 0-1-...-n-1 as a tree rooted at 0 with unit
// weights. This is the spanning tree of the lower-bound constructions.
func PathTree(n int) *Tree { return fromWalker(PathWalker(n)) }

// StarTree returns the star with center 0 (unit weights): the tree
// behind a "home-based" topology, diameter 2.
func StarTree(n int) *Tree { return fromWalker(StarWalker(n)) }

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
