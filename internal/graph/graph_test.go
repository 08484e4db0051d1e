package graph

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
	if !g.Unit() {
		t.Error("empty graph should report Unit")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge not visible from both sides")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3 {
		t.Errorf("EdgeWeight(0,1) = %d,%v want 3,true", w, ok)
	}
	if g.Unit() {
		t.Error("graph with weight-3 edge must not report Unit")
	}
	if d := len(g.Neighbors(1)); d != 2 {
		t.Errorf("node 1 has %d neighbours, want 2", d)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"self-loop", func() { New(3).AddEdge(1, 1, 1) }},
		{"out-of-range", func() { New(3).AddEdge(0, 7, 1) }},
		{"zero-weight", func() { New(3).AddEdge(0, 1, 0) }},
		{"negative-weight", func() { New(3).AddEdge(0, 1, -2) }},
		{"negative-count", func() { New(-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if g.Connected() {
		t.Error("two components reported connected")
	}
	g.AddEdge(1, 2, 1)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Error("trivial graphs must be connected")
	}
}

func TestShortestFromUnitVsWeighted(t *testing.T) {
	// A 5-cycle: BFS (unit) and Dijkstra must agree.
	unit := Cycle(5)
	weighted := New(5)
	for _, e := range unit.EdgeList() {
		weighted.AddEdge(e.U, e.V, 1)
	}
	// Force the Dijkstra path by adding a weighted edge elsewhere.
	big := New(5)
	for _, e := range unit.EdgeList() {
		big.AddEdge(e.U, e.V, 2)
	}
	du := unit.ShortestFrom(0)
	dw := big.ShortestFrom(0)
	for v := range du {
		if dw[v] != 2*du[v] {
			t.Errorf("node %d: weighted dist %d != 2*unit %d", v, dw[v], du[v])
		}
	}
}

func TestShortestPathEndpointsAndLength(t *testing.T) {
	g := Grid(4, 4)
	path, d := g.ShortestPath(0, 15)
	if d != 6 {
		t.Errorf("corner-to-corner distance = %d, want 6", d)
	}
	if path[0] != 0 || path[len(path)-1] != 15 {
		t.Errorf("path endpoints %d..%d, want 0..15", path[0], path[len(path)-1])
	}
	if len(path) != 7 {
		t.Errorf("path has %d nodes, want 7", len(path))
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Errorf("path step (%d,%d) is not an edge", path[i-1], path[i])
		}
	}
}

// TestAllPairsMemoizedUntilAddEdge: callers between two AddEdge calls
// share one matrix, and AddEdge drops it, so a shortcut's distances show
// while the matrix handed out earlier stays as it was.
func TestAllPairsMemoizedUntilAddEdge(t *testing.T) {
	g := Path(5)
	d := g.AllPairs()
	if &g.AllPairs()[0][0] != &d[0][0] {
		t.Fatal("a second AllPairs recomputed the matrix")
	}
	g.AddEdge(0, 4, 1)
	if got := g.AllPairs()[0][4]; got != 1 {
		t.Errorf("after the shortcut dG(0,4) = %d, want 1", got)
	}
	if d[0][4] != 4 {
		t.Errorf("AddEdge changed a matrix already handed out: dG(0,4) = %d, want 4", d[0][4])
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if p, d := g.ShortestPath(0, 2); p != nil || d != Infinity {
		t.Errorf("unreachable: got path=%v d=%d", p, d)
	}
	dist := g.ShortestFrom(0)
	if dist[2] != Infinity {
		t.Errorf("dist to unreachable = %d, want Infinity", dist[2])
	}
}

func TestDiameterKnownTopologies(t *testing.T) {
	star := New(8)
	for u := 1; u < 8; u++ {
		star.AddEdge(0, NodeID(u), 1)
	}
	cases := []struct {
		name string
		g    *Graph
		want Weight
	}{
		{"path10", Path(10), 9},
		{"cycle10", Cycle(10), 5},
		{"complete7", Complete(7), 1},
		{"star8", star, 2},
		{"grid3x4", Grid(3, 4), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if d := tc.g.Diameter(); d != tc.want {
				t.Errorf("diameter = %d, want %d", d, tc.want)
			}
		})
	}
}

func TestCenterOfPath(t *testing.T) {
	g := Path(9)
	c, ecc := g.Center()
	if c != 4 || ecc != 4 {
		t.Errorf("center = %d (ecc %d), want 4 (ecc 4)", c, ecc)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Grid(3, 3)
	edges := g.EdgeList()
	if len(edges) != g.NumEdges() {
		t.Fatalf("EdgeList has %d entries, want %d", len(edges), g.NumEdges())
	}
	rebuilt := New(g.NumNodes())
	for _, e := range edges {
		rebuilt.AddEdge(e.U, e.V, e.W)
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := 0; v < g.NumNodes(); v++ {
			if g.HasEdge(NodeID(u), NodeID(v)) != rebuilt.HasEdge(NodeID(u), NodeID(v)) {
				t.Fatalf("edge (%d,%d) differs after round trip", u, v)
			}
		}
	}
}

func TestGeneratorsConnectedAndSized(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		nodes int
	}{
		{"complete10", Complete(10), 10},
		{"path1", Path(1), 1},
		{"gnp-sparse", GNP(30, 0.05, 1), 30},
		{"gnp-dense", GNP(30, 0.9, 2), 30},
		{"geometric", RandomGeometric(25, 0.3, 5, 3), 25},
		{"shortcuts", PathWithShortcuts(32, 4), 33},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.NumNodes() != tc.nodes {
				t.Errorf("nodes = %d, want %d", tc.g.NumNodes(), tc.nodes)
			}
			if !tc.g.Connected() {
				t.Error("generator produced a disconnected graph")
			}
		})
	}
}

func TestPathWithShortcutsStretchSource(t *testing.T) {
	// The gadget keeps path distance between shortcut endpoints at 1.
	g := PathWithShortcuts(16, 4)
	if w, ok := g.EdgeWeight(0, 4); !ok || w != 1 {
		t.Errorf("shortcut edge (0,4) = %d,%v want 1,true", w, ok)
	}
	if d := g.Dist(0, 16); d != 4 {
		t.Errorf("dG(0,16) = %d, want 4 (via shortcuts)", d)
	}
}

func TestPathWithShortcutsRejectsBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-dividing stretch")
		}
	}()
	PathWithShortcuts(10, 3)
}

// Property: triangle inequality for shortest-path distances on random
// connected graphs.
func TestShortestPathTriangleInequality(t *testing.T) {
	prop := func(seed int64) bool {
		n := 10 + int(seed%11+11)%11
		g := GNP(n, 0.3, seed)
		d := g.AllPairs()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					if d[u][v] > d[u][w]+d[w][v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: symmetry of shortest-path distances on undirected graphs.
func TestShortestPathSymmetry(t *testing.T) {
	prop := func(seed int64) bool {
		n := 8 + int(seed%7+7)%7
		g := RandomGeometric(n, 0.4, 5, seed)
		d := g.AllPairs()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if d[u][v] != d[v][u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: eccentricity of every node is between radius and diameter.
func TestEccentricityBounds(t *testing.T) {
	prop := func(seed int64) bool {
		n := 6 + int(seed%9+9)%9
		g := GNP(n, 0.4, seed)
		diam := g.Diameter()
		_, radius := g.Center()
		for u := 0; u < n; u++ {
			ecc := g.Eccentricity(NodeID(u))
			if ecc < radius || ecc > diam {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

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
