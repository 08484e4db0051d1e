package tree

import "repro/internal/graph"

// Nav is the navigation interface the arrow protocol's drivers and
// sim.TreeTopology actually need from a spanning tree: parent pointers,
// next-hop routing and distances. *Tree satisfies it with O(log n)
// distances over O(n log n) binary-lifting tables and next hops from
// O(n) Euler-tour intervals; the implicit
// implementations in this package (Walker, GridNav) answer the same
// queries by on-the-fly parent walks over O(n) — or O(1) — state, which
// is what makes million-node trees affordable (the LCA tables were the
// memory wall).
type Nav interface {
	// NumNodes returns the node count.
	NumNodes() int
	// Root returns the rooting node (used for rooting, not the protocol
	// sink).
	Root() graph.NodeID
	// Parent returns v's parent; the root is its own parent.
	Parent(v graph.NodeID) graph.NodeID
	// ParentWeight returns the weight of v's parent edge. The root has
	// no parent edge; its value is implementation-defined.
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
