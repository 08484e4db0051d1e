package ivy

// Simulator-backed Ivy: find messages follow probable-owner chains as
// real discrete-event messages over the graph metric, with Directory as
// the pointer-combinatorics core (StartFind/ForwardFind are its
// step-wise face). Run replays a static request set; RunClosedLoop is
// the Section 5 closed-loop regime, driven by the shared closed-loop
// driver (package shard).
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
	// Seed drives random latency/arbitration.
	Seed int64
}

// Completion records the ownership transfer serving one request.
type Completion struct {
	Req queuing.Request
	// PredID is the request this one queued behind (-1 = the initial
	// ownership at the root).
	PredID int
	// At is the simulated time the find reached the owner (ownership
	// transfer — the request is now queued).
	At sim.Time
	// Hops is the number of forwarding messages (the pointer-chain
	// length; each may cross several physical links on non-complete
	// graphs, see PhysHops).
	Hops int
	// PhysHops counts physical link traversals.
	PhysHops int
}

// Latency returns At − issue time.
func (c Completion) Latency() int64 { return int64(c.At - c.Req.Time) }

// Result aggregates a static-set Ivy run.
type Result struct {
	Set         queuing.Set
	Completions []Completion
	// Order is the total order induced by the predecessor chain — the
	// sequence ownership passes through the requests.
	Order        queuing.Order
	TotalLatency int64
	TotalHops    int64
	MaxHops      int
	Makespan     sim.Time
	// Directory is the final directory state, exposing the amortized
	// Θ(log n) chain accounting (Ginat–Sleator–Tarjan).
	Directory *Directory
}

type findMsg struct {
	reqID  int
	origin graph.NodeID
	hops   int
	phys   int
}

// Run executes Ivy for a static request set over graph g's metric: finds
// are forwarded along probable-owner pointers as simulator messages and
// each visited pointer shortens at the requester.
func Run(g *graph.Graph, set queuing.Set, opts Options) (*Result, error) {
	if err := set.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if int(opts.Root) < 0 || int(opts.Root) >= n {
		return nil, fmt.Errorf("ivy: root %d out of range", opts.Root)
	}
	topo := sim.NewMetricTopology(g)
	s := sim.New(sim.Config{
		Topology:    topo,
		Latency:     opts.Latency,
		Arbitration: opts.Arbitration,
		Seed:        opts.Seed,
		MaxEvents:   sim.SatAdd(sim.SatMul(int64(len(set)), sim.SatMul(int64(n+4), 4)), 1024),
	})
	dir := NewDirectory(n, opts.Root)
	res := &Result{
		Set:         set,
		Completions: make([]Completion, len(set)),
		Directory:   dir,
	}
	for i := range res.Completions {
		res.Completions[i].PredID = -2
	}
	// Pre-boxed messages, one per request: forwarding mutates and
	// resends the same pointer at every hop, so a chain of length k
	// costs zero interface boxings instead of k.
	msgs := make([]findMsg, len(set))
	// lastReq[v] is the most recent request that made v self-pointing
	// (pending or owner); -1 marks the initial ownership at the root.
	lastReq := make([]int, n)
	for v := range lastReq {
		lastReq[v] = -1
	}
	completed := 0
	complete := func(ctx *sim.Context, reqID, predID, hops, phys int) {
		c := &res.Completions[reqID]
		if c.PredID != -2 {
			panic("ivy: request completed twice")
		}
		*c = Completion{Req: set[reqID], PredID: predID, At: ctx.Now(), Hops: hops, PhysHops: phys}
		completed++
	}
	s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
		m, ok := msg.(*findMsg)
		if !ok {
			panic(fmt.Sprintf("ivy: unexpected message %T", msg))
		}
		next, done := dir.ForwardFind(at, m.origin, m.hops)
		if done {
			complete(ctx, m.reqID, lastReq[at], m.hops, m.phys)
			return
		}
		m.hops++
		m.phys += topo.Hops(at, next)
		ctx.Send(at, next, m)
	})
	for _, r := range set {
		req := r
		s.ScheduleAt(req.Time, func(ctx *sim.Context) {
			v := req.Node
			target, local := dir.StartFind(v)
			if local {
				pred := lastReq[v]
				lastReq[v] = req.ID
				complete(ctx, req.ID, pred, 0, 0)
				return
			}
			lastReq[v] = req.ID
			m := &msgs[req.ID]
			m.reqID, m.origin, m.hops, m.phys = req.ID, v, 1, topo.Hops(v, target)
			ctx.Send(v, target, m)
		})
	}
	res.Makespan = s.Run()
	if completed != len(set) {
		return nil, fmt.Errorf("ivy: completed %d of %d requests", completed, len(set))
	}
	succ := make(map[int]int, len(set))
	for i, c := range res.Completions {
		if _, dup := succ[c.PredID]; dup {
			return nil, fmt.Errorf("ivy: duplicate successor for %d", c.PredID)
		}
		succ[c.PredID] = i
	}
	order := make(queuing.Order, 0, len(set))
	cur, ok := succ[-1]
	for ok {
		order = append(order, cur)
		cur, ok = succ[cur]
	}
	if len(order) != len(set) {
		return nil, fmt.Errorf("ivy: broken predecessor chain")
	}
	res.Order = order
	for _, c := range res.Completions {
		res.TotalLatency += c.Latency()
		res.TotalHops += int64(c.Hops)
		if c.Hops > res.MaxHops {
			res.MaxHops = c.Hops
		}
	}
	return res, nil
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
// the pointer updates of Directory's StartFind/ForwardFind without its
// cross-node chain statistics.
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
