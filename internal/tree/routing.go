package tree

import "repro/internal/graph"

// KthAncestor returns v's ancestor k levels up, or the root if k exceeds
// v's depth.
func (t *Tree) KthAncestor(v graph.NodeID, k int) graph.NodeID {
	for b := 0; k > 0 && b <= t.logN; b++ {
		if k&1 == 1 {
			v = t.up[b][v]
		}
		k >>= 1
	}
	return v
}

// NextHop returns u's tree neighbour on the unique path from u to target.
// It panics if u == target (there is no next hop).
func (t *Tree) NextHop(u, target graph.NodeID) graph.NodeID {
	if u == target {
		panic("tree: NextHop with u == target")
	}
	l := t.LCA(u, target)
	if l != u {
		// Path first climbs toward the LCA.
		return t.parent[u]
	}
	// u is an ancestor of target: descend to the child of u on the path,
	// i.e. target's ancestor one level below u.
	k := int(t.depth[target] - t.depth[u] - 1)
	return t.KthAncestor(target, k)
}
