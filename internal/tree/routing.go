package tree

import "repro/internal/graph"

// NextHop returns u's tree neighbour on the unique path from u to target.
// It panics if u == target (there is no next hop).
//
// The path climbs unless target lies in u's subtree, which one compare
// of Euler-tour entry times decides. Below u it steps to target itself
// when target is u's child, else into the child whose preorder interval
// holds target's entry time, found by binary search over u's children
// in entry order: O(log deg), a dozen probes at a node with 4,096
// children.
func (t *Tree) NextHop(u, target graph.NodeID) graph.NodeID {
	if u == target {
		panic("tree: NextHop with u == target")
	}
	if !t.contains(u, target) {
		return t.parent[u]
	}
	if t.parent[target] == u {
		return target
	}
	// The first child's entry is tin[u]+1 <= at, so lo stays valid.
	at, kids := t.tin[target], t.children(u)
	lo := 0
	for n := len(kids); n > 1; {
		half := n >> 1
		if t.tin[kids[lo+half]] <= at {
			lo += half
		}
		n -= half
	}
	return kids[lo]
}
