package shard

import "repro/internal/graph"

// Reversal is the pointer table NTA and Ivy share: k independent pointer
// sets over the same n nodes, every pointer of a set initially naming
// that object's root. A request chases the pointers to the node that
// names itself, and every node it visits — the requester included —
// redirects its pointer to the requester. NTA calls the pointers "last"
// and the self-pointing node the tail holder; Ivy calls them probable
// owners and the chase forward path shortening. The pointer updates are
// step for step the same, so the two protocols' closed-loop rows are
// identical by construction (nta's TestClosedLoopMatchesIvy pins it).
type Reversal struct {
	n   int
	ptr []graph.NodeID
}

// NewReversal builds k pointer sets over n nodes, object o's pointers
// initially naming node (root + o) mod n — so k instances share no
// initial hotspot; O(k·n) space.
func NewReversal(n, k int, root graph.NodeID) *Reversal {
	r := &Reversal{n: n, ptr: make([]graph.NodeID, k*n)}
	for o := 0; o < k; o++ {
		home := graph.NodeID((int(root) + o) % n)
		set := r.ptr[o*n : (o+1)*n]
		for v := range set {
			set[v] = home
		}
	}
	return r
}

// StartFind begins a request for obj at v: a self pointer means v holds
// the object already; otherwise the request chases v's pointer and v
// names itself (it is about to hold the object).
func (r *Reversal) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*r.n + int(v)
	if r.ptr[i] == v {
		return v, true
	}
	target := r.ptr[i]
	r.ptr[i] = v
	return target, false
}

// ForwardFind redirects at's pointer for obj to the requester and
// continues the chase; a self pointer means the object was here.
func (r *Reversal) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	i := int(obj)*r.n + int(at)
	next := r.ptr[i]
	r.ptr[i] = origin
	if next == at {
		return origin, true
	}
	return next, false
}

// Pointers returns object obj's pointer of every node, indexed by node.
func (r *Reversal) Pointers(obj int32) []graph.NodeID {
	return r.ptr[int(obj)*r.n : (int(obj)+1)*r.n]
}

// ShardSafeStepper is the unread shard.ShardSafe marker (every entry is
// keyed by the node whose events touch it); kept for bench/, see there.
func (r *Reversal) ShardSafeStepper() {}
