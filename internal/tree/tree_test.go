package tree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func mustBFS(t *testing.T, g *graph.Graph, root graph.NodeID) *Tree {
	t.Helper()
	tr, err := BFS(g, root)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFromParentsValidation(t *testing.T) {
	cases := []struct {
		name   string
		root   graph.NodeID
		parent []graph.NodeID
		pw     []graph.Weight
	}{
		{"empty", 0, nil, nil},
		{"root-out-of-range", 5, []graph.NodeID{0, 0}, []graph.Weight{0, 1}},
		{"root-not-self", 0, []graph.NodeID{1, 1}, []graph.Weight{0, 1}},
		{"cycle", 0, []graph.NodeID{0, 2, 1}, []graph.Weight{0, 1, 1}},
		{"bad-weight", 0, []graph.NodeID{0, 0}, []graph.Weight{0, 0}},
		{"weights-length", 0, []graph.NodeID{0, 0}, []graph.Weight{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromParents(tc.root, tc.parent, tc.pw); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestDistAgainstGraphOnTreeTopology(t *testing.T) {
	// dT computed via LCA must equal dG on the tree's own graph.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		g := graph.GNP(n, 0.3, int64(trial))
		tr := mustBFS(t, g, 0)
		tg := tr.ToGraph()
		for q := 0; q < 30; q++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if got, want := tr.Dist(u, v), tg.Dist(u, v); got != want {
				t.Fatalf("trial %d: dT(%d,%d) = %d, graph says %d", trial, u, v, got, want)
			}
		}
	}
}

func TestHopsAndDepth(t *testing.T) {
	tr := BalancedBinary(15)
	if tr.Hops(7, 8) != 2 {
		t.Errorf("hops(7,8) = %d, want 2 (siblings)", tr.Hops(7, 8))
	}
	if tr.Hops(7, 14) != 6 {
		t.Errorf("hops(7,14) = %d, want 6 (leaf to leaf across root)", tr.Hops(7, 14))
	}
	if tr.Depth(0) != 0 || tr.Depth(7) != 3 {
		t.Errorf("depths: root %d (want 0), node7 %d (want 3)", tr.Depth(0), tr.Depth(7))
	}
}

// LCA returns the lowest common ancestor of u and v: the first ancestor
// of u whose subtree holds v.
func (t *Tree) LCA(u, v graph.NodeID) graph.NodeID {
	for !t.contains(u, v) {
		u = t.parent[u]
	}
	return u
}

// mustFromParents is FromParents that fails by panic, for parent arrays
// the test builds itself.
func mustFromParents(root graph.NodeID, parent []graph.NodeID, pw []graph.Weight) *Tree {
	t, err := FromParents(root, parent, pw)
	if err != nil {
		panic(err)
	}
	return t
}

func TestLCAKnownTree(t *testing.T) {
	tr := BalancedBinary(15)
	cases := []struct{ u, v, want graph.NodeID }{
		{7, 8, 3}, {7, 9, 1}, {7, 14, 0}, {3, 7, 3}, {0, 12, 0}, {5, 5, 5},
	}
	for _, tc := range cases {
		if got := tr.LCA(tc.u, tc.v); got != tc.want {
			t.Errorf("LCA(%d,%d) = %d, want %d", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestNextHopWalksToTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := BalancedBinary(31)
	for q := 0; q < 100; q++ {
		u := graph.NodeID(rng.Intn(31))
		v := graph.NodeID(rng.Intn(31))
		if u == v {
			continue
		}
		cur := u
		steps := 0
		for cur != v {
			cur = tr.NextHop(cur, v)
			steps++
			if steps > 31 {
				t.Fatalf("NextHop(%d -> %d) does not terminate", u, v)
			}
		}
		if steps != tr.Hops(u, v) {
			t.Errorf("NextHop walk %d->%d took %d steps, Hops says %d", u, v, steps, tr.Hops(u, v))
		}
	}
}

// TestTreeNextHopMatchesDist checks NextHop on every ordered pair of
// distinct nodes against the distance oracle: the hop is a tree
// neighbour of u, and it lies on the u–target path, dT(u, target) =
// w(u, next) + dT(next, target). The trees cover a deep path, a star
// whose centre has every other node as a child, the paper's binary tree
// and random weighted trees under permuted labels (so neither the root
// nor children are in index order).
func TestTreeNextHopMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	trees := map[string]*Tree{
		"binary-64": BalancedBinary(64), "binary-13": BalancedBinary(13),
		"path-64": PathTree(64), "star-64": StarTree(64), "star-2": StarTree(2),
	}
	for i, n := range []int{1, 2, 3, 17, 64} {
		perm := rng.Perm(n)
		parent := make([]graph.NodeID, n)
		pw := make([]graph.Weight, n)
		parent[perm[0]] = graph.NodeID(perm[0])
		for j := 1; j < n; j++ {
			parent[perm[j]] = graph.NodeID(perm[rng.Intn(j)])
			pw[perm[j]] = graph.Weight(1 + rng.Intn(9))
		}
		tr, err := FromParents(graph.NodeID(perm[0]), parent, pw)
		if err != nil {
			t.Fatal(err)
		}
		trees[fmt.Sprintf("random-%d-%d", i, n)] = tr
	}
	for name, tr := range trees {
		n := graph.NodeID(tr.NumNodes())
		for u := graph.NodeID(0); u < n; u++ {
			for target := graph.NodeID(0); target < n; target++ {
				if u == target {
					continue
				}
				next := tr.NextHop(u, target)
				w := graph.Weight(-1)
				for _, e := range tr.Neighbors(u) {
					if e.To == next {
						w = e.W
					}
				}
				if w < 0 {
					t.Fatalf("%s: NextHop(%d, %d) = %d, not a tree neighbour of %d", name, u, target, next, u)
				}
				if got, want := w+tr.Dist(next, target), tr.Dist(u, target); got != want {
					t.Fatalf("%s: NextHop(%d, %d) = %d is off the path: w %d + dT(%d, %d) = %d, dT(%d, %d) = %d",
						name, u, target, next, w, next, target, got, u, target, want)
				}
			}
		}
	}
}

// BenchmarkTreeNextHop times one NextHop: over every ordered pair of the
// paper's 76-node binary tree; from the centre of a 4096-node star to
// each leaf in turn (the target is a child: no search); and from the
// centre of a 4096-node spider — 63 legs of 65 nodes — to each leg's far
// end, where the downward child is found by binary search over 63
// children.
func BenchmarkTreeNextHop(b *testing.B) {
	type pair struct{ u, t graph.NodeID }
	const legs, leg = 63, 65
	spiderParent := make([]graph.NodeID, 1+legs*leg)
	spiderWeight := make([]graph.Weight, len(spiderParent))
	var spiderPairs []pair
	for j := 0; j < legs; j++ {
		for k := 0; k < leg; k++ {
			v := 1 + j*leg + k
			spiderParent[v], spiderWeight[v] = graph.NodeID(v-1), 1
			if k == 0 {
				spiderParent[v] = 0
			}
		}
		spiderPairs = append(spiderPairs, pair{0, graph.NodeID((j + 1) * leg)})
	}
	binary, star := BalancedBinary(76), StarTree(4096)
	spider := mustFromParents(0, spiderParent, spiderWeight)
	var binaryPairs, starPairs []pair
	for u := graph.NodeID(0); u < 76; u++ {
		for v := graph.NodeID(0); v < 76; v++ {
			if u != v {
				binaryPairs = append(binaryPairs, pair{u, v})
			}
		}
	}
	for v := graph.NodeID(1); v < 4096; v++ {
		starPairs = append(starPairs, pair{0, v})
	}
	for _, bc := range []struct {
		name  string
		tr    *Tree
		pairs []pair
	}{{"binary-76", binary, binaryPairs}, {"star-4096", star, starPairs}, {"spider-4096", spider, spiderPairs}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink graph.NodeID
			for i := 0; i < b.N; i++ {
				p := bc.pairs[i%len(bc.pairs)]
				sink |= bc.tr.NextHop(p.u, p.t)
			}
			if sink < 0 {
				b.Fatal("negative node id")
			}
		})
	}
}

func TestDiameterKnownTrees(t *testing.T) {
	if d := PathTree(10).Diameter(); d != 9 {
		t.Errorf("path tree diameter = %d, want 9", d)
	}
	if d := StarTree(10).Diameter(); d != 2 {
		t.Errorf("star tree diameter = %d, want 2", d)
	}
	if d := BalancedBinary(15).Diameter(); d != 6 {
		t.Errorf("balanced binary 15 diameter = %d, want 6", d)
	}
	if d := BalancedBinary(1).Diameter(); d != 0 {
		t.Errorf("singleton diameter = %d, want 0", d)
	}
}

func TestDiameterMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		g := graph.RandomGeometric(n, 0.5, 4, int64(trial))
		tr, err := PrimMST(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		var brute graph.Weight
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if d := tr.Dist(graph.NodeID(u), graph.NodeID(v)); d > brute {
					brute = d
				}
			}
		}
		if d := tr.Diameter(); d != brute {
			t.Errorf("trial %d: Diameter = %d, brute force = %d", trial, d, brute)
		}
	}
}

func TestMSTWeightsAgree(t *testing.T) {
	// Prim and Kruskal must produce spanning trees of equal total weight.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(25)
		g := graph.RandomGeometric(n, 0.6, 9, int64(trial))
		p, err := PrimMST(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		k, err := KruskalMST(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pw, kw := treeWeight(p), treeWeight(k); pw != kw {
			t.Errorf("trial %d: Prim weight %d != Kruskal weight %d", trial, pw, kw)
		}
	}
}

func treeWeight(t *Tree) graph.Weight {
	var total graph.Weight
	for v := 0; v < t.NumNodes(); v++ {
		node := graph.NodeID(v)
		if node == t.Root() {
			continue
		}
		total += t.Dist(node, t.Parent(node))
	}
	return total
}

func TestMSTIsMinimumOnSmallGraphs(t *testing.T) {
	// Compare Prim against brute-force enumeration over spanning trees of
	// a small graph (via Kruskal on all edge permutations is overkill;
	// instead check against a hand-computed instance).
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 5)
	g.AddEdge(0, 2, 2)
	tr, err := PrimMST(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := treeWeight(tr); w != 4 {
		t.Errorf("MST weight = %d, want 4 (edges 1+2+1 or 1+2+1)", w)
	}
}

func TestShortestPathTreePreservesRootDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(30)
		g := graph.RandomGeometric(n, 0.5, 6, int64(trial))
		root := graph.NodeID(rng.Intn(n))
		tr, err := ShortestPathTree(g, root)
		if err != nil {
			t.Fatal(err)
		}
		dg := g.ShortestFrom(root)
		for v := 0; v < n; v++ {
			if tr.Dist(root, graph.NodeID(v)) != dg[v] {
				t.Errorf("trial %d: dT(root,%d)=%d != dG=%d",
					trial, v, tr.Dist(root, graph.NodeID(v)), dg[v])
			}
		}
	}
}

func TestStretchDefinitions(t *testing.T) {
	// On a cycle of length n with a path spanning tree, the stretch is
	// n-1 (the removed edge's endpoints).
	n := 12
	g := graph.Cycle(n)
	tr := PathTree(n)
	s, pair := tr.Stretch(g)
	if s != float64(n-1) {
		t.Errorf("stretch = %f, want %d", s, n-1)
	}
	if d := tr.Dist(pair[0], pair[1]); d != graph.Weight(n-1) {
		t.Errorf("witness pair %v has dT %d, want %d", pair, d, n-1)
	}
	if es := tr.EdgeStretch(g); es != float64(n-1) {
		t.Errorf("edge stretch = %f, want %d", es, n-1)
	}
}

func TestEdgeStretchEqualsFullStretchOnUnitGraphs(t *testing.T) {
	prop := func(seed int64) bool {
		n := 6 + int(seed%10+10)%10
		g := graph.GNP(n, 0.4, seed)
		tr, err := BFS(g, 0)
		if err != nil {
			return false
		}
		full, _ := tr.Stretch(g)
		edge := tr.EdgeStretch(g)
		// Edge stretch is a lower bound in general; for unit graphs they
		// coincide because any path's stretch is at most the max edge's.
		return edge <= full+1e-9 && full <= edge+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: tree distance satisfies the metric axioms.
func TestTreeDistanceIsMetric(t *testing.T) {
	prop := func(seed int64) bool {
		n := 4 + int(seed%20+20)%20
		g := graph.GNP(n, 0.3, seed)
		tr, err := BFS(g, 0)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 20; q++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			w := graph.NodeID(rng.Intn(n))
			duv := tr.Dist(u, v)
			if duv != tr.Dist(v, u) {
				return false
			}
			if (u == v) != (duv == 0) {
				return false
			}
			if duv > tr.Dist(u, w)+tr.Dist(w, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: spanning trees of connected graphs span all nodes and use
// only graph edges.
func TestSpanningTreesAreSubgraphs(t *testing.T) {
	prop := func(seed int64) bool {
		n := 3 + int(seed%16+16)%16
		g := graph.RandomGeometric(n, 0.5, 3, seed)
		for _, build := range []func(*graph.Graph, graph.NodeID) (*Tree, error){BFS, PrimMST, KruskalMST, ShortestPathTree} {
			tr, err := build(g, 0)
			if err != nil {
				return false
			}
			if tr.NumNodes() != n {
				return false
			}
			for v := 0; v < n; v++ {
				node := graph.NodeID(v)
				if node == tr.Root() {
					continue
				}
				if !g.HasEdge(node, tr.Parent(node)) {
					return false
				}
			}
			if tr.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if uf.sets != 6 {
		t.Errorf("initial sets = %d, want 6", uf.sets)
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) || !uf.Union(0, 2) {
		t.Error("unions of disjoint sets must succeed")
	}
	if uf.Union(1, 3) {
		t.Error("union within a set must report false")
	}
	if uf.Find(0) != uf.Find(3) {
		t.Error("0 and 3 should share a representative")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Error("4 should be separate")
	}
	if uf.sets != 3 {
		t.Errorf("sets = %d, want 3", uf.sets)
	}
}

func TestBFSOnSingleNode(t *testing.T) {
	g := graph.New(1)
	tr := mustBFS(t, g, 0)
	if tr.NumNodes() != 1 || tr.Diameter() != 0 {
		t.Error("single-node tree malformed")
	}
	if tr.Dist(0, 0) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestBFSDisconnectedFails(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	if _, err := BFS(g, 0); err == nil {
		t.Error("expected error on disconnected graph")
	}
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

// Validate re-checks the structural invariants; it is used by tests.
func (t *Tree) Validate() error {
	_, err := FromParents(t.root, t.parent, t.pw)
	return err
}
