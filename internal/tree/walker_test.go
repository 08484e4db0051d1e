package tree

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// checkNavParity compares every Nav query of imp against the explicit
// tree on all parents and sampled next hops, and against Dijkstra on the
// explicit tree's edges for sampled distances (Tree.Dist is Walker.Dist,
// so the tree itself is no reference for a distance).
func checkNavParity(t *testing.T, exp *Tree, imp Nav, rng *rand.Rand, pairs int) {
	t.Helper()
	n := exp.NumNodes()
	g := exp.ToGraph()
	if got := imp.NumNodes(); got != n {
		t.Fatalf("NumNodes = %d, want %d", got, n)
	}
	if got := imp.Root(); got != exp.Root() {
		t.Fatalf("Root = %d, want %d", got, exp.Root())
	}
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if got, want := imp.Parent(id), exp.Parent(id); got != want {
			t.Fatalf("Parent(%d) = %d, want %d", v, got, want)
		}
		if got, want := imp.ParentWeight(id), exp.ParentWeight(id); got != want {
			t.Fatalf("ParentWeight(%d) = %d, want %d", v, got, want)
		}
	}
	for i := 0; i < pairs; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if got, want := imp.Dist(u, v), g.Dist(u, v); got != want {
			t.Fatalf("Dist(%d, %d) = %d, want %d", u, v, got, want)
		}
		if u == v {
			continue
		}
		if got, want := imp.NextHop(u, v), exp.NextHop(u, v); got != want {
			t.Fatalf("NextHop(%d, %d) = %d, want %d", u, v, got, want)
		}
	}
}

// TestWalkerMatchesTreeRandom is the quickcheck pin for the implicit
// topology layer: on random parent arrays (with and without random
// weights) the Walker's parent-walk answers must match the explicit
// Tree's Euler-tour next hops and Dijkstra's distances query for query.
func TestWalkerMatchesTreeRandom(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 17, 64, 257, 1000}
	for _, n := range sizes {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(n)))
			parent := make([]graph.NodeID, n)
			pw := make([]graph.Weight, n)
			pw[0] = 1 // root's weight is ignored
			for v := 1; v < n; v++ {
				parent[v] = graph.NodeID(rng.Intn(v))
				pw[v] = graph.Weight(1 + rng.Intn(9))
			}
			exp := mustFromParents(0, parent, pw)

			w, err := WalkerFromParents(0, parent, pw)
			if err != nil {
				t.Fatalf("n=%d seed=%d: WalkerFromParents: %v", n, seed, err)
			}
			checkNavParity(t, exp, w, rng, 200)

			// Unit-weight variant: nil pw on the walker, explicit ones on
			// the tree.
			ones := make([]graph.Weight, n)
			for i := range ones {
				ones[i] = 1
			}
			expUnit := mustFromParents(0, parent, ones)
			wUnit, err := WalkerFromParents(0, parent, nil)
			if err != nil {
				t.Fatalf("n=%d seed=%d: unit WalkerFromParents: %v", n, seed, err)
			}
			checkNavParity(t, expUnit, wUnit, rng, 200)
		}
	}
}

// TestWalkerShapesMatchBuilders pins the generator-shaped walkers
// against the explicit builders they mirror.
func TestWalkerShapesMatchBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 7, 64, 513} {
		checkNavParity(t, BalancedBinary(n), BinaryWalker(n), rng, 300)
		checkNavParity(t, PathTree(n), PathWalker(n), rng, 300)
		checkNavParity(t, StarTree(n), StarWalker(n), rng, 300)
	}
}

// TestGridNavMatchesExplicitComb pins the closed-form grid navigator
// against an explicit comb tree built from the same parent rule.
func TestGridNavMatchesExplicitComb(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][2]int{{1, 1}, {1, 8}, {8, 1}, {4, 5}, {13, 9}, {32, 32}} {
		rows, cols := dims[0], dims[1]
		n := rows * cols
		parent := make([]graph.NodeID, n)
		pw := make([]graph.Weight, n)
		for v := 0; v < n; v++ {
			r, c := v/cols, v%cols
			pw[v] = 1
			switch {
			case c > 0:
				parent[v] = graph.NodeID(v - 1)
			case r > 0:
				parent[v] = graph.NodeID((r - 1) * cols)
			default:
				parent[v] = graph.NodeID(v)
			}
		}
		exp := mustFromParents(0, parent, pw)
		checkNavParity(t, exp, GridWalker(rows, cols), rng, 500)
	}
}

// TestTreeStateSize bounds what building the paper's binary tree at
// 131,071 nodes allocates per node, temporaries included: a Walker's
// parent and depth arrays, the adjacency and the Euler-tour intervals
// come to about 72 B; per-node slices or O(n log n) tables would not fit.
func TestTreeStateSize(t *testing.T) {
	const n = 1<<17 - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := BalancedBinary(n)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	if perNode := float64(after.TotalAlloc-before.TotalAlloc) / n; perNode > 160 {
		t.Errorf("BalancedBinary(%d) allocated %.0f B/node, want <= 160", n, perNode)
	}
}

// TestWalkerFromParentsRejectsBadInput mirrors FromParents validation.
func TestWalkerFromParentsRejectsBadInput(t *testing.T) {
	if _, err := WalkerFromParents(0, nil, nil); err == nil {
		t.Fatal("empty parent array accepted")
	}
	if _, err := WalkerFromParents(3, []graph.NodeID{0, 0}, nil); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := WalkerFromParents(0, []graph.NodeID{1, 0}, nil); err == nil {
		t.Fatal("root with foreign parent accepted")
	}
	// Two-node cycle detached from the root.
	if _, err := WalkerFromParents(0, []graph.NodeID{0, 2, 1}, nil); err == nil {
		t.Fatal("cycle accepted")
	}
	if _, err := WalkerFromParents(0, []graph.NodeID{0, 1}, nil); err == nil {
		t.Fatal("non-root self-parent accepted")
	}
	if _, err := WalkerFromParents(0, []graph.NodeID{0, 0}, []graph.Weight{0, 0}); err == nil {
		t.Fatal("non-positive weight accepted")
	}
}
