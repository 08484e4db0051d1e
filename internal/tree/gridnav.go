package tree

import (
	"fmt"

	"repro/internal/graph"
)

// GridNav is a closed-form Nav for the comb spanning tree of
// graph.Grid(rows, cols): node (r, c) has ID r*cols+c; column 0 is the
// spine ((r, 0) parents to (r-1, 0)) and each row is a tooth ((r, c)
// parents to (r, c-1) for c > 0), rooted at (0, 0) with unit weights.
// Every query decomposes into row/column arithmetic, so Parent, Dist
// and NextHop are O(1) with zero per-node state — a generic parent walk
// would pay O(depth) per query, which at grid depths of a thousand-plus
// makes million-node runs infeasible.
type GridNav struct {
	rows, cols int
}

// GridWalker returns the comb-tree navigator for graph.Grid(rows, cols).
func GridWalker(rows, cols int) *GridNav {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("tree: GridWalker(%d, %d) needs positive dimensions", rows, cols))
	}
	return &GridNav{rows: rows, cols: cols}
}

// NumNodes returns rows*cols.
func (g *GridNav) NumNodes() int { return g.rows * g.cols }

// Root returns node (0, 0).
func (g *GridNav) Root() graph.NodeID { return 0 }

// id maps grid coordinates to the node ID graph.Grid assigns.
func (g *GridNav) id(r, c int) graph.NodeID { return graph.NodeID(r*g.cols + c) }

// rc splits a node ID into grid coordinates.
func (g *GridNav) rc(v graph.NodeID) (r, c int) { return int(v) / g.cols, int(v) % g.cols }

// Parent returns v's comb-tree parent; the root is its own parent.
func (g *GridNav) Parent(v graph.NodeID) graph.NodeID {
	r, c := g.rc(v)
	switch {
	case c > 0:
		return g.id(r, c-1)
	case r > 0:
		return g.id(r-1, 0)
	default:
		return v
	}
}

// ParentWeight returns 1 for every non-root node (the grid has unit
// edge weights) and 0 for the root.
func (g *GridNav) ParentWeight(v graph.NodeID) graph.Weight {
	if v == 0 {
		return 0
	}
	return 1
}

// Dist returns the comb-tree distance. Two nodes in the same row meet
// at the shallower column; otherwise the path runs through the spine at
// (min(r1, r2), 0).
func (g *GridNav) Dist(u, v graph.NodeID) graph.Weight {
	r1, c1 := g.rc(u)
	r2, c2 := g.rc(v)
	if r1 == r2 {
		if c1 > c2 {
			return graph.Weight(c1 - c2)
		}
		return graph.Weight(c2 - c1)
	}
	d := r1 - r2
	if d < 0 {
		d = -d
	}
	return graph.Weight(d + c1 + c2)
}

// NextHop returns u's comb-tree neighbour on the path to target. It
// panics if u == target.
func (g *GridNav) NextHop(u, target graph.NodeID) graph.NodeID {
	if u == target {
		panic("tree: NextHop with u == target")
	}
	ru, cu := g.rc(u)
	rt, ct := g.rc(target)
	if ru == rt {
		if ct > cu {
			return g.id(ru, cu+1)
		}
		return g.id(ru, cu-1)
	}
	// Different rows: the path runs through the spine. Off-spine nodes
	// climb their tooth; spine nodes move along the spine toward the
	// target's row.
	if cu > 0 {
		return g.id(ru, cu-1)
	}
	if rt > ru {
		return g.id(ru+1, 0)
	}
	return g.id(ru-1, 0)
}
