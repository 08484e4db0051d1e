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
	"fmt"

	"repro/internal/graph"
	"repro/internal/queuing"
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
	// Seed drives random latency/arbitration.
	Seed int64
}

// Completion records the queuing of one request.
type Completion struct {
	Req    queuing.Request
	PredID int
	At     sim.Time
	// Hops is the number of logical forwarding messages (each may cross
	// several physical links on non-complete graphs; see PhysHops).
	Hops int
	// PhysHops counts physical link traversals.
	PhysHops int
}

// Latency returns At − issue time.
func (c Completion) Latency() int64 { return int64(c.At - c.Req.Time) }

// Result aggregates an NTA run.
type Result struct {
	Set          queuing.Set
	Completions  []Completion
	Order        queuing.Order
	TotalLatency int64
	TotalHops    int64
	MaxHops      int
	Makespan     sim.Time
}

type requestMsg struct {
	reqID  int
	origin graph.NodeID
	hops   int
	phys   int
}

// Run executes NTA for a static request set over graph g.
func Run(g *graph.Graph, set queuing.Set, opts Options) (*Result, error) {
	if err := set.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if int(opts.Root) < 0 || int(opts.Root) >= n {
		return nil, fmt.Errorf("nta: root %d out of range", opts.Root)
	}
	topo := sim.NewMetricTopology(g)
	s := sim.New(sim.Config{
		Topology:    topo,
		Latency:     opts.Latency,
		Arbitration: opts.Arbitration,
		Seed:        opts.Seed,
		MaxEvents:   sim.SatAdd(sim.SatMul(int64(len(set)), sim.SatMul(int64(n+4), 4)), 1024),
	})
	last := make([]graph.NodeID, n)
	lastReq := make([]int, n)
	for v := range last {
		last[v] = opts.Root
		lastReq[v] = -1
	}
	last[opts.Root] = opts.Root

	res := &Result{Set: set, Completions: make([]Completion, len(set))}
	for i := range res.Completions {
		res.Completions[i].PredID = -2
	}
	completed := 0
	complete := func(ctx *sim.Context, m requestMsg, predID int) {
		c := &res.Completions[m.reqID]
		if c.PredID != -2 {
			panic("nta: request completed twice")
		}
		*c = Completion{
			Req:      set[m.reqID],
			PredID:   predID,
			At:       ctx.Now(),
			Hops:     m.hops,
			PhysHops: m.phys,
		}
		completed++
	}
	var receive func(ctx *sim.Context, at graph.NodeID, m requestMsg)
	receive = func(ctx *sim.Context, at graph.NodeID, m requestMsg) {
		target := last[at]
		last[at] = m.origin
		if target == at {
			// at holds the tail: m.origin's request queues behind at's
			// last issued request.
			complete(ctx, m, lastReq[at])
			return
		}
		m.hops++
		m.phys += topo.Hops(at, target)
		ctx.Send(at, target, m)
	}
	s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
		m, ok := msg.(requestMsg)
		if !ok {
			panic(fmt.Sprintf("nta: unexpected message %T", msg))
		}
		receive(ctx, at, m)
	})
	for _, r := range set {
		req := r
		s.ScheduleAt(req.Time, func(ctx *sim.Context) {
			v := req.Node
			m := requestMsg{reqID: req.ID, origin: v}
			if last[v] == v {
				// v already holds the tail: local completion.
				complete(ctx, m, lastReq[v])
				lastReq[v] = req.ID
				return
			}
			target := last[v]
			last[v] = v
			lastReq[v] = req.ID
			m.hops++
			m.phys += topo.Hops(v, target)
			ctx.Send(v, target, m)
		})
	}
	res.Makespan = s.Run()
	if completed != len(set) {
		return nil, fmt.Errorf("nta: completed %d of %d requests", completed, len(set))
	}
	succ := make(map[int]int, len(set))
	for i, c := range res.Completions {
		if _, dup := succ[c.PredID]; dup {
			return nil, fmt.Errorf("nta: duplicate successor for %d", c.PredID)
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
		return nil, fmt.Errorf("nta: broken predecessor chain")
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
