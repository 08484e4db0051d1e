package centralized

import (
	"repro/internal/graph"
	"repro/internal/shard"
)

// ShardCenters is the centralized scheme's multi-object discipline:
// object o's coordinator is center_o = o mod n, so the k objects
// round-robin their coordinators across the nodes instead of melting
// one. The stepper is stateless — every request is one hop to the
// object's center — and the serialization a real coordinator suffers
// comes from the shared network's per-link capacity (Spec.LinkTxTime)
// rather than an explicit service time: requests for the same object
// from the same origin queue on the origin→center link.
type ShardCenters struct {
	n int
}

// NewShardCenters validates the dimensions — n < 1 or k < 1 is a
// *sim.ConfigError naming the field; no per-object state exists.
func NewShardCenters(n, k int) (*ShardCenters, error) {
	if err := shard.CheckShape(n, k); err != nil {
		return nil, err
	}
	return &ShardCenters{n: n}, nil
}

// center returns object obj's coordinator.
func (c *ShardCenters) center(obj int32) graph.NodeID {
	return graph.NodeID(int(obj) % c.n)
}

// StartFind completes locally when v is the object's own coordinator;
// otherwise the request is one hop to the center.
func (c *ShardCenters) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	ctr := c.center(obj)
	if v == ctr {
		return v, true
	}
	return ctr, false
}

// ForwardFind always terminates: the only forward is the single hop to
// the center.
func (c *ShardCenters) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	return at, true
}

// ShardSafeStepper is the unread shard.ShardSafe marker (there is no
// mutable state at all); kept for bench/, see there.
func (c *ShardCenters) ShardSafeStepper() {}
