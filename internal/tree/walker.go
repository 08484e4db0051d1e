package tree

import (
	"fmt"

	"repro/internal/graph"
)

// Walker is an implicit tree navigator: it answers the Nav queries by
// walking parent pointers on the fly instead of materializing binary-
// lifting LCA tables. State is two flat O(n) arrays (three with
// weights), so a million-node tree costs ~8 MB instead of the ~200 MB
// the lifted *Tree needs. Queries are O(depth(u) + depth(v)), which is
// O(log n) on the balanced shapes the scale tier targets.
type Walker struct {
	root   graph.NodeID
	parent []graph.NodeID
	depth  []int32
	pw     []graph.Weight // nil means every parent edge has weight 1
}

// WalkerFromParents builds a Walker from a parent-pointer array. The
// root must satisfy parent[root] == root; every other node's parent
// chain must reach the root (cycles or a second self-parent are
// rejected). pw gives per-node parent-edge weights; nil means unit
// weights. Unlike FromParents it keeps no adjacency or lifting tables,
// so construction is O(n) time and the arrays are retained as-is.
func WalkerFromParents(root graph.NodeID, parent []graph.NodeID, pw []graph.Weight) (*Walker, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty parent array")
	}
	if int(root) < 0 || int(root) >= n {
		return nil, fmt.Errorf("tree: root %d out of range [0,%d)", root, n)
	}
	if parent[root] != root {
		return nil, fmt.Errorf("tree: root %d is not its own parent", root)
	}
	if pw != nil && len(pw) != n {
		return nil, fmt.Errorf("tree: weight array length %d != %d nodes", len(pw), n)
	}
	for v := 0; v < n; v++ {
		p := parent[v]
		if int(p) < 0 || int(p) >= n {
			return nil, fmt.Errorf("tree: node %d has parent %d out of range", v, p)
		}
		if graph.NodeID(v) != root && p == graph.NodeID(v) {
			return nil, fmt.Errorf("tree: node %d is its own parent but is not the root", v)
		}
		if pw != nil && graph.NodeID(v) != root && pw[v] <= 0 {
			return nil, fmt.Errorf("tree: node %d has non-positive parent weight %d", v, pw[v])
		}
	}
	// Compute depths iteratively, memoizing along each walked chain; a
	// chain that exceeds n steps without reaching a known depth is a
	// cycle (equivalently: a component not attached to the root).
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[root] = 0
	stack := make([]graph.NodeID, 0, 64)
	for v := 0; v < n; v++ {
		u := graph.NodeID(v)
		stack = stack[:0]
		for depth[u] < 0 {
			if len(stack) > n {
				return nil, fmt.Errorf("tree: cycle through node %d", v)
			}
			stack = append(stack, u)
			u = parent[u]
		}
		d := depth[u]
		for i := len(stack) - 1; i >= 0; i-- {
			d++
			depth[stack[i]] = d
		}
	}
	return &Walker{root: root, parent: parent, depth: depth, pw: pw}, nil
}

// MustWalkerFromParents is WalkerFromParents that panics on error.
func MustWalkerFromParents(root graph.NodeID, parent []graph.NodeID, pw []graph.Weight) *Walker {
	w, err := WalkerFromParents(root, parent, pw)
	if err != nil {
		panic(err)
	}
	return w
}

// BinaryWalker is the implicit counterpart of BalancedBinary(n): node
// v > 0 has parent (v-1)/2 with unit weight, rooted at 0.
func BinaryWalker(n int) *Walker {
	parent := make([]graph.NodeID, n)
	for v := 1; v < n; v++ {
		parent[v] = graph.NodeID((v - 1) / 2)
	}
	return MustWalkerFromParents(0, parent, nil)
}

// PathWalker is the implicit counterpart of PathTree(n): node v > 0 has
// parent v-1, rooted at 0.
func PathWalker(n int) *Walker {
	parent := make([]graph.NodeID, n)
	for v := 1; v < n; v++ {
		parent[v] = graph.NodeID(v - 1)
	}
	return MustWalkerFromParents(0, parent, nil)
}

// StarWalker is the implicit counterpart of StarTree(n): every node
// v > 0 hangs off hub 0.
func StarWalker(n int) *Walker {
	parent := make([]graph.NodeID, n)
	return MustWalkerFromParents(0, parent, nil)
}

// NumNodes returns the node count.
func (w *Walker) NumNodes() int { return len(w.parent) }

// Root returns the rooting node.
func (w *Walker) Root() graph.NodeID { return w.root }

// Parent returns v's parent; the root is its own parent.
func (w *Walker) Parent(v graph.NodeID) graph.NodeID { return w.parent[v] }

// ParentWeight returns the weight of v's parent edge (0 for the root).
func (w *Walker) ParentWeight(v graph.NodeID) graph.Weight {
	if v == w.root {
		return 0
	}
	if w.pw == nil {
		return 1
	}
	return w.pw[v]
}

// ParentArrays lends the navigator's own flat arrays, indexed by node:
// parent (the root its own parent) and the parent-edge weights, nil when
// every edge has weight 1 (the root's entry is never meaningful). The
// simulator resolves tree links from them instead of calling Parent and
// ParentWeight per message. Read-only: the arrays are the tree.
func (w *Walker) ParentArrays() (parent []graph.NodeID, weight []graph.Weight) {
	return w.parent, w.pw
}

// Depth returns v's hop depth below the root.
func (w *Walker) Depth(v graph.NodeID) int32 { return w.depth[v] }

// Dist returns the weighted tree distance dT(u, v) by the classic
// two-pointer walk: lift the deeper endpoint to the shallower one's
// depth, then climb both until they meet, accumulating edge weights.
func (w *Walker) Dist(u, v graph.NodeID) graph.Weight {
	var d graph.Weight
	for w.depth[u] > w.depth[v] {
		d += w.edgeW(u)
		u = w.parent[u]
	}
	for w.depth[v] > w.depth[u] {
		d += w.edgeW(v)
		v = w.parent[v]
	}
	for u != v {
		d += w.edgeW(u) + w.edgeW(v)
		u = w.parent[u]
		v = w.parent[v]
	}
	return d
}

// NextHop returns u's tree neighbour on the unique path from u to
// target. It panics if u == target. When target is strictly deeper, it
// lifts target to one level below u; if that ancestor's parent is u the
// path descends through it, otherwise (and in every other case) the
// path climbs to u's parent.
func (w *Walker) NextHop(u, target graph.NodeID) graph.NodeID {
	if u == target {
		panic("tree: NextHop with u == target")
	}
	if w.depth[target] > w.depth[u] {
		x := target
		for w.depth[x] > w.depth[u]+1 {
			x = w.parent[x]
		}
		if w.parent[x] == u {
			return x
		}
	}
	return w.parent[u]
}

// edgeW returns the weight of v's parent edge without the root guard
// (callers never ask for the root's edge).
func (w *Walker) edgeW(v graph.NodeID) graph.Weight {
	if w.pw == nil {
		return 1
	}
	return w.pw[v]
}
