package nta

import (
	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/shard"
	"repro/internal/sim"
)

// LoopConfig drives the closed-loop workload of the paper's experiments
// (Section 5) for NTA, mirroring arrow.LoopConfig: every node issues
// PerNode queuing requests, each issued ThinkTime units after learning the
// previous one completed. A request that queues remotely is acknowledged
// by a reply message from the predecessor's node back to the requester,
// sent directly over the metric. The shared run knobs live in the
// embedded loop.Spec.
type LoopConfig struct {
	loop.Spec
	// Root is the initial tail holder; all last pointers start there.
	Root graph.NodeID
}

// LoopResult aggregates a closed-loop NTA run — the shared closed-loop
// counter shape (see loop.Result).
type LoopResult = loop.Result

// ShardReversal is NTA's pointer state as a shard.Stepper: one set of
// last pointers per object. Every visited node redirects its last
// pointer to the requester, and the chase ends at the node whose pointer
// is self (the tail holder) — exactly the pointer operations of the
// static Run.
type ShardReversal = shard.Reversal

// NewShardReversal builds k last-pointer sets over n nodes, object o's
// pointers initially converging on root_o = o mod n: bits.Len(n-1) bits
// a pointer, ⌈w·k·n/8⌉ + 8 bytes in all (see shard.Cells).
func NewShardReversal(n, k int) (*ShardReversal, error) {
	return shard.NewReversal(n, k, 0)
}

// RunClosedLoop executes the closed-loop NTA experiment over graph g's
// metric: requests follow last pointers as real simulator messages, each
// visited node redirects its pointer to the requester, and the node
// holding the tail notifies the requester directly.
func RunClosedLoop(g *graph.Graph, cfg LoopConfig) (*LoopResult, error) {
	return RunClosedLoopTopo(sim.NewMetricTopology(g), cfg)
}

// RunClosedLoopTopo is RunClosedLoop over an arbitrary metric topology;
// the implicit sim.CompleteTopology keeps million-node runs free of the
// O(n²) distance matrix.
func RunClosedLoopTopo(topo sim.Topology, cfg LoopConfig) (*LoopResult, error) {
	step, err := shard.NewReversal(topo.NumNodes(), 1, cfg.Root)
	if err != nil {
		return nil, err
	}
	res, err := shard.Run(topo, step, "nta", shard.Spec{Spec: cfg.Spec, Objects: 1})
	if err != nil {
		return nil, err
	}
	return &res.Agg, nil
}
