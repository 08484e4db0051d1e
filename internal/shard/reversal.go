package shard

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Reversal is NTA's pointer table: k independent pointer sets over the
// same n nodes, every pointer of a set initially naming that object's
// root. A request chases the pointers to the node that names itself
// (the tail holder), and every node it visits — the requester included —
// redirects its pointer to the requester. Ivy's path shortening makes
// the same update for a find, so this one stepper serves both, held
// against ivy.Directory's atomic chains (TestReversalMatchesDirectory).
type Reversal struct {
	n   int
	ptr Cells
}

// NewReversal builds k pointer sets over n nodes, object o's pointers
// initially naming node (root + o) mod n — so k instances share no
// initial hotspot — in k·n Cells. n < 1, k < 1 or a root outside
// [0, n) is a *sim.ConfigError naming the field.
func NewReversal(n, k int, root graph.NodeID) (*Reversal, error) {
	switch {
	case n < 1:
		return nil, &sim.ConfigError{Field: "n", Reason: fmt.Sprintf("must be >= 1, got %d", n)}
	case k < 1:
		return nil, &sim.ConfigError{Field: "k", Reason: fmt.Sprintf("must be >= 1 objects, got %d", k)}
	case root < 0 || int(root) >= n:
		return nil, &sim.ConfigError{Field: "root", Reason: fmt.Sprintf("must be in [0, %d), got %d", n, root)}
	}
	r := &Reversal{n: n, ptr: NewCells(n, k*n)}
	for o := 0; o < k; o++ {
		home := graph.NodeID((int(root) + o) % n)
		for i := o * n; i < (o+1)*n; i++ {
			r.ptr.Set(i, home)
		}
	}
	return r, nil
}

// StartFind begins a request for obj at v: a self pointer means v holds
// the object already; otherwise the request chases v's pointer and v
// names itself (it is about to hold the object).
func (r *Reversal) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*r.n + int(v)
	target := r.ptr.Get(i)
	if target == v {
		return v, true
	}
	r.ptr.Set(i, v)
	return target, false
}

// ForwardFind redirects at's pointer for obj to the requester and
// continues the chase; a self pointer means the object was here.
func (r *Reversal) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*r.n + int(at)
	next := r.ptr.Get(i)
	r.ptr.Set(i, origin)
	if next == at {
		return origin, true
	}
	return next, false
}

// Cells is a flat table of node IDs, the pointer storage of Reversal and
// arrow.ShardForest: two bytes a cell when n <= 65 536 (every ID fits a
// uint16), four otherwise. NewCells picks the width once from n; Get and
// Set hide it.
type Cells struct {
	narrow []uint16
	wide   []graph.NodeID
}

// NewCells returns size cells naming node 0, wide enough for n nodes.
func NewCells(n, size int) Cells {
	if n <= 1<<16 {
		return Cells{narrow: make([]uint16, size)}
	}
	return Cells{wide: make([]graph.NodeID, size)}
}

// Get returns the node cell i names.
func (c *Cells) Get(i int) graph.NodeID {
	if c.wide != nil {
		return c.wide[i]
	}
	return graph.NodeID(c.narrow[i])
}

// Set points cell i at node v.
func (c *Cells) Set(i int, v graph.NodeID) {
	if c.wide != nil {
		c.wide[i] = v
		return
	}
	c.narrow[i] = uint16(v)
}

// ShardSafeStepper is the unread shard.ShardSafe marker (every entry is
// keyed by the node whose events touch it); kept for bench/, see there.
func (r *Reversal) ShardSafeStepper() {}
