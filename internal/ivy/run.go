package ivy

// Simulator-backed Ivy: find messages follow probable-owner chains as
// real discrete-event messages over the graph metric, the pointer
// updates being shard.Reversal's. Run replays a static request set
// (shard.Replay); RunClosedLoop is the Section 5 closed-loop regime
// (shard.Driver).
// A find reaching a node with an in-flight request of its own queues
// behind it (the object will pass through that node), matching the
// queuing-completion definition the other protocols use.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/queuing"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Options configures a simulator-backed Ivy run.
type Options struct {
	// Root is the initial owner; all probable-owner pointers start there.
	Root graph.NodeID
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed keys the random latency and arbitration draws: each hashes
	// (Seed, event seq).
	Seed int64
}

// Completion records the ownership transfer serving one request: PredID
// is the request it queued behind (-1 = the initial ownership at the
// root), At the time the find reached the owner, Hops the pointer-chain
// length in forwarding messages and PhysHops the physical links crossed.
type Completion = shard.Completion

// Result aggregates a static-set Ivy run; Order is the sequence
// ownership passes through the requests.
type Result struct {
	shard.StaticResult
	// FinalOwners is every node's probable-owner pointer after
	// quiescence; the owner is the node naming itself.
	FinalOwners []graph.NodeID
}

// Run executes Ivy for a static request set over graph g's metric: a
// shard.Replay of the Reversal pointer table the closed loop runs, each
// visited pointer shortening at the requester.
func Run(g *graph.Graph, set queuing.Set, opts Options) (*Result, error) {
	n := g.NumNodes()
	if int(opts.Root) < 0 || int(opts.Root) >= n {
		return nil, fmt.Errorf("ivy: root %d out of range", opts.Root)
	}
	step := shard.NewReversal(n, 1, opts.Root)
	res, err := shard.Replay(sim.NewMetricTopology(g), step, "ivy", set,
		shard.ReplayOptions{Latency: opts.Latency, Arbitration: opts.Arbitration, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	return &Result{StaticResult: *res, FinalOwners: step.Pointers(0)}, nil
}

// LoopConfig drives the closed-loop Ivy experiment, mirroring
// arrow.LoopConfig and nta.LoopConfig: every node issues PerNode
// requests, each issued ThinkTime after the previous one is known to be
// served, with ownership transfers acknowledged by a direct reply from
// the previous owner's node. The shared run knobs live in the embedded
// loop.Spec.
type LoopConfig struct {
	loop.Spec
	// Root is the initial owner.
	Root graph.NodeID
}

// LoopResult aggregates a closed-loop Ivy run — the shared closed-loop
// counter shape (see loop.Result). QueueHops counts find-forwarding
// messages: the pointer-chain length summed over requests, i.e. the
// amortized-Θ(log n) quantity.
type LoopResult = loop.Result

// ShardDirectory is Ivy's probable-owner state as a shard.Stepper: one
// owner-pointer set per object, chased with forward path shortening —
// Directory's pointer updates one hop at a time, without its cross-node
// chain statistics.
type ShardDirectory = shard.Reversal

// NewShardDirectory builds k probable-owner sets over n nodes, object
// o's pointers initially naming root_o = o mod n as owner; O(k·n) space.
func NewShardDirectory(n, k int) (*ShardDirectory, error) {
	if n < 1 {
		return nil, fmt.Errorf("ivy: shard directory needs n >= 1, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("ivy: shard directory needs k >= 1 objects, got %d", k)
	}
	return shard.NewReversal(n, k, 0), nil
}

// RunClosedLoop executes the closed-loop Ivy experiment over graph g's
// metric.
func RunClosedLoop(g *graph.Graph, cfg LoopConfig) (*LoopResult, error) {
	return RunClosedLoopTopo(sim.NewMetricTopology(g), cfg)
}

// RunClosedLoopTopo is RunClosedLoop over an arbitrary metric topology;
// the implicit sim.CompleteTopology keeps million-node runs free of the
// O(n²) distance matrix.
func RunClosedLoopTopo(topo sim.Topology, cfg LoopConfig) (*LoopResult, error) {
	n := topo.NumNodes()
	if int(cfg.Root) < 0 || int(cfg.Root) >= n {
		return nil, fmt.Errorf("ivy: root %d out of range", cfg.Root)
	}
	step := shard.NewReversal(n, 1, cfg.Root)
	res, err := shard.Run(topo, step, "ivy", shard.Spec{Spec: cfg.Spec, Objects: 1})
	if err != nil {
		return nil, err
	}
	return &res.Agg, nil
}
