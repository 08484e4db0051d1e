package shard

import (
	"fmt"
	"math/bits"

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
	n    int
	root int
	ptr  Cells
}

// NewReversal builds k pointer sets over n nodes, object o's pointers
// initially naming node (root + o) mod n — so k instances share no
// initial hotspot. A cell holds its pointer XOR that initial holder in
// bits.Len(n-1) bits, so the zeroed table is the initial state and the
// k·n cells take ⌈w·k·n/8⌉ + 8 bytes. n < 1, k < 1 or a root outside
// [0, n) is a *sim.ConfigError naming the field.
func NewReversal(n, k int, root graph.NodeID) (*Reversal, error) {
	if err := CheckShape(n, k); err != nil {
		return nil, err
	}
	if root < 0 || int(root) >= n {
		return nil, &sim.ConfigError{Field: "root", Reason: fmt.Sprintf("must be in [0, %d), got %d", n, root)}
	}
	return &Reversal{n: n, root: int(root), ptr: NewCells(bits.Len(uint(n-1)), k*n)}, nil
}

// CheckShape rejects a multi-object stepper shape no object set fits:
// n < 1 or k < 1 is a *sim.ConfigError naming the field.
func CheckShape(n, k int) error {
	switch {
	case n < 1:
		return &sim.ConfigError{Field: "n", Reason: fmt.Sprintf("must be >= 1, got %d", n)}
	case k < 1:
		return &sim.ConfigError{Field: "k", Reason: fmt.Sprintf("must be >= 1 objects, got %d", k)}
	}
	return nil
}

// home returns obj's initial holder, (root + obj) mod n; the division
// is left for object counts beyond n - root.
func (r *Reversal) home(obj int32) graph.NodeID {
	h := r.root + int(obj)
	if h >= r.n {
		h %= r.n
	}
	return graph.NodeID(h)
}

// StartFind begins a request for obj at v: a self pointer means v holds
// the object already; otherwise the request chases v's pointer and v
// names itself (it is about to hold the object).
func (r *Reversal) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	i, h := int(obj)*r.n+int(v), r.home(obj)
	target := graph.NodeID(r.ptr.Get(i)) ^ h
	if target == v {
		return v, true
	}
	r.ptr.Set(i, uint32(v^h))
	return target, false
}

// ForwardFind redirects at's pointer for obj to the requester and
// continues the chase; a self pointer means the object was here.
func (r *Reversal) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	i, h := int(obj)*r.n+int(at), r.home(obj)
	next := graph.NodeID(r.ptr.Get(i)) ^ h
	r.ptr.Set(i, uint32(origin^h))
	if next == at {
		return origin, true
	}
	return next, false
}

// ShardSafeStepper is the unread shard.ShardSafe marker (every entry is
// keyed by the node whose events touch it); kept for bench/, see there.
func (r *Reversal) ShardSafeStepper() {}
