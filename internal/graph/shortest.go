package graph

//arrow:allow schedorder Dijkstra's priority queue orders graph distances, not simulator events
import "container/heap"

// ShortestFrom returns the single-source shortest-path distances dG(src, ·)
// for every node. Unreachable nodes get Infinity. Unit-weight graphs use
// BFS; weighted graphs use Dijkstra with a binary heap.
func (g *Graph) ShortestFrom(src NodeID) []Weight {
	g.check(src)
	if g.unitOnly {
		return g.bfs(src)
	}
	dist, _ := g.dijkstra(src, -1, false)
	return dist
}

// Dist returns the shortest-path distance dG(u, v).
// For repeated queries prefer ShortestFrom or AllPairs.
func (g *Graph) Dist(u, v NodeID) Weight {
	return g.ShortestFrom(u)[v]
}

func (g *Graph) bfs(src NodeID) []Weight {
	n := g.NumNodes()
	dist := make([]Weight, n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	queue := make([]NodeID, 0, n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, e := range g.adj[u] {
			if dist[e.To] == Infinity {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

type pqItem struct {
	node NodeID
	dist Weight
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// dijkstra runs Dijkstra from src and stops once stop is popped (-1:
// never). With withPrev it also returns each node's predecessor on its
// shortest path (-1 for src and unreached nodes). Stopping early cannot
// change the predecessor chain of stop: every node on it was popped
// before stop, and a popped node's prev is final.
func (g *Graph) dijkstra(src, stop NodeID, withPrev bool) (dist []Weight, prev []NodeID) {
	n := g.NumNodes()
	dist = make([]Weight, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Infinity
	}
	if withPrev {
		prev = make([]NodeID, n)
		for i := range prev {
			prev[i] = -1
		}
	}
	dist[src] = 0
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == stop {
			break
		}
		for _, e := range g.adj[u] {
			if nd := dist[u] + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				if withPrev {
					prev[e.To] = u
				}
				heap.Push(q, pqItem{node: e.To, dist: nd})
			}
		}
	}
	return dist, prev
}

// ShortestTree returns a shortest-path tree rooted at src as a
// predecessor array: prev[v] is v's predecessor on the path
// ShortestPath(src, v) returns, and -1 for src and for unreachable nodes.
// One Dijkstra pass yields every path ShortestPath would find from src.
func (g *Graph) ShortestTree(src NodeID) []NodeID {
	g.check(src)
	_, prev := g.dijkstra(src, -1, true)
	return prev
}

// ShortestPath returns one shortest path from src to dst as a node sequence
// including both endpoints, and its length. It returns (nil, Infinity) if
// dst is unreachable.
func (g *Graph) ShortestPath(src, dst NodeID) ([]NodeID, Weight) {
	g.check(src)
	g.check(dst)
	dist, prev := g.dijkstra(src, dst, true)
	if dist[dst] == Infinity {
		return nil, Infinity
	}
	var path []NodeID
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst]
}

// AllPairs returns the full distance matrix dG. It runs one shortest-path
// pass per node: O(n·(m + n log n)) for weighted graphs, O(n·(n+m)) for
// unit graphs. The matrix is memoized until the next AddEdge, so every
// caller between two AddEdge calls shares one; it is owned by the graph
// and must not be modified.
func (g *Graph) AllPairs() [][]Weight {
	if d := g.allPairs.Load(); d != nil {
		return *d
	}
	n := g.NumNodes()
	d := make([][]Weight, n)
	for i := 0; i < n; i++ {
		d[i] = g.ShortestFrom(NodeID(i))
	}
	g.allPairs.Store(&d)
	return d
}

// Eccentricity returns max_v dG(u, v), or Infinity if the graph is
// disconnected from u.
func (g *Graph) Eccentricity(u NodeID) Weight {
	dist := g.ShortestFrom(u)
	var ecc Weight
	for _, d := range dist {
		if d == Infinity {
			return Infinity
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum shortest-path distance between any two
// nodes, or Infinity if the graph is disconnected. O(n) shortest-path
// passes.
func (g *Graph) Diameter() Weight {
	var diam Weight
	for u := 0; u < g.NumNodes(); u++ {
		ecc := g.Eccentricity(NodeID(u))
		if ecc == Infinity {
			return Infinity
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// Center returns a node with minimum eccentricity (the graph center) and
// its eccentricity. For an empty graph it returns (0, 0).
func (g *Graph) Center() (NodeID, Weight) {
	best := NodeID(0)
	bestEcc := Infinity
	if g.NumNodes() == 0 {
		return 0, 0
	}
	for u := 0; u < g.NumNodes(); u++ {
		ecc := g.Eccentricity(NodeID(u))
		if ecc < bestEcc {
			bestEcc = ecc
			best = NodeID(u)
		}
	}
	return best, bestEcc
}
