package tree

import "repro/internal/graph"

// Nav is the navigation interface the arrow protocol's drivers and
// sim.TreeTopology actually need from a spanning tree: parent pointers,
// next-hop routing and distances. Walker answers them by parent walks
// over O(n) state; *Tree is a Walker that routes NextHop by O(n)
// Euler-tour intervals instead; GridNav answers in closed form over
// O(1) state.
type Nav interface {
	// NumNodes returns the node count.
	NumNodes() int
	// Root returns the rooting node (used for rooting, not the protocol
	// sink).
	Root() graph.NodeID
	// Parent returns v's parent; the root is its own parent.
	Parent(v graph.NodeID) graph.NodeID
	// ParentWeight returns the weight of v's parent edge, 0 for the
	// root, which has none.
	ParentWeight(v graph.NodeID) graph.Weight
	// NextHop returns u's tree neighbour on the unique path from u to
	// target. It panics if u == target (there is no next hop).
	NextHop(u, target graph.NodeID) graph.NodeID
	// Dist returns the weighted tree distance dT(u, v).
	Dist(u, v graph.NodeID) graph.Weight
}

// Compile-time checks: the explicit tree and both implicit navigators
// answer the same interface.
var (
	_ Nav = (*Tree)(nil)
	_ Nav = (*Walker)(nil)
	_ Nav = (*GridNav)(nil)
)
