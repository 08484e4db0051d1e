package analysis

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tree"
)

// TreeKind selects a spanning-tree construction for experiments.
type TreeKind int

const (
	// TreeBalancedBinary is the paper's experimental choice on complete
	// graphs (Section 5).
	TreeBalancedBinary TreeKind = iota
	// TreeMST is Prim's minimum spanning tree (Demmer–Herlihy's choice).
	TreeMST
	// TreeBFS is the breadth-first tree from the graph center.
	TreeBFS
	// TreeStar is a star centered on node 0 — a "home node" topology;
	// only valid when the graph has the needed edges.
	TreeStar
	// TreePath is the path 0-1-...-n-1; only valid on graphs containing
	// that path (paths, cycles, complete graphs, lower-bound gadgets).
	TreePath
)

func (k TreeKind) String() string {
	switch k {
	case TreeBalancedBinary:
		return "balanced-binary"
	case TreeMST:
		return "mst-prim"
	case TreeBFS:
		return "bfs"
	case TreeStar:
		return "star"
	case TreePath:
		return "path"
	default:
		return fmt.Sprintf("tree(%d)", int(k))
	}
}

// BuildTree constructs the requested spanning tree of g. Star, path and
// balanced-binary require the corresponding edges to exist in g (true on
// complete graphs).
func BuildTree(kind TreeKind, g *graph.Graph) (*tree.Tree, error) {
	switch kind {
	case TreeBalancedBinary:
		t := tree.BalancedBinary(g.NumNodes())
		if err := checkEmbeds(t, g); err != nil {
			return nil, err
		}
		return t, nil
	case TreeMST:
		return tree.PrimMST(g, 0)
	case TreeBFS:
		c, _ := g.Center()
		return tree.BFS(g, c)
	case TreeStar:
		t := tree.StarTree(g.NumNodes())
		if err := checkEmbeds(t, g); err != nil {
			return nil, err
		}
		return t, nil
	case TreePath:
		t := tree.PathTree(g.NumNodes())
		if err := checkEmbeds(t, g); err != nil {
			return nil, err
		}
		return t, nil
	default:
		return nil, fmt.Errorf("analysis: unknown tree kind %d", int(kind))
	}
}

// checkEmbeds verifies that every tree edge exists in g — spanning trees
// must be subgraphs of the network.
func checkEmbeds(t *tree.Tree, g *graph.Graph) error {
	for v := 0; v < t.NumNodes(); v++ {
		node := graph.NodeID(v)
		if node == t.Root() {
			continue
		}
		if !g.HasEdge(node, t.Parent(node)) {
			return fmt.Errorf("analysis: tree edge (%d,%d) missing from graph", node, t.Parent(node))
		}
	}
	return nil
}
