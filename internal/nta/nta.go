// Package nta implements the Naimi–Trehel–Arnold (NTA) path-reversal
// queuing protocol, the closest relative of arrow discussed in the
// paper's related work (Section 1.1). Unlike arrow, NTA assumes a
// completely connected network: a node's "last" pointer may name any node
// in the graph, and a request is forwarded directly to that node over the
// network metric. Every node a request visits redirects its pointer to
// the requester, so pointer chains collapse toward recent requesters —
// expected O(log n) messages per operation under uniform demand, but up
// to n in the worst case (vs. arrow's tree-diameter bound).
package nta

import (
	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Options configures an NTA run.
type Options struct {
	// Root is the initial tail holder; all last pointers start there.
	Root graph.NodeID
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed keys the random latency and arbitration draws: each hashes
	// (Seed, event seq).
	Seed int64
}

// Completion records the queuing of one request: Hops counts logical
// forwarding messages, PhysHops the physical links they crossed.
type Completion = shard.Completion

// Result aggregates an NTA run.
type Result = shard.StaticResult

// Run executes NTA for a static request set over graph g's metric: a
// shard.Replay of the Reversal pointer table the closed loop runs.
func Run(g *graph.Graph, set queuing.Set, opts Options) (*Result, error) {
	step, err := shard.NewReversal(g.NumNodes(), 1, opts.Root)
	if err != nil {
		return nil, err
	}
	return shard.Replay(sim.NewMetricTopology(g), step, "nta", set,
		shard.ReplayOptions{Latency: opts.Latency, Arbitration: opts.Arbitration, Seed: opts.Seed})
}
