// Package centralized implements the centralized queuing protocol the
// paper compares against in Section 5: a globally known central node
// stores the current tail of the total order; every queuing request costs
// one message to the central node and one message back. The central node
// serializes request processing (one message per time unit),
// which is what produces the linear slowdown of Figure 10 as the system
// grows.
//
// Messages travel over the graph's shortest paths (MetricTopology), so on
// a complete graph each of the two messages is a single hop, exactly as
// in the paper's SP2 setup.
package centralized

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Options configures a centralized-protocol run.
type Options struct {
	// Center is the central node (queue-tail holder).
	Center graph.NodeID
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed keys the random latency and arbitration draws: each hashes
	// (Seed, event seq).
	Seed int64
}

// Completion records the queuing of one request by the centralized
// protocol: At is when the requester received the reply naming its
// predecessor (the experiment's completion definition in Section 5),
// Sink the central node, and Hops = PhysHops the physical link
// traversals of the request + reply pair.
type Completion = shard.Completion

// Result aggregates a static-set centralized run.
type Result = shard.StaticResult

// seqMsg is the static (request-set) run's message family, distinct
// from the closed-loop family in closedloop.go; the marker method lets
// arrowlint's msgswitch analyzer check switch exhaustiveness.
type seqMsg interface{ isSeqMsg() }

type reqMsg struct {
	reqID  int
	origin graph.NodeID
}

type replyMsg struct {
	reqID  int
	predID int
}

func (reqMsg) isSeqMsg()   {}
func (replyMsg) isSeqMsg() {}

// serviceTime is the time the central node needs per request message:
// the serialization bottleneck.
const serviceTime sim.Time = 1

// engine holds the central node's serialization state for the static Run
// (the closed loop has its own serve, see closedloop.go).
type engine struct {
	center    graph.NodeID
	busyUntil sim.Time
	lastReq   int // last request granted a queue position; -1 = root
}

// serve admits one request message at the central node at the current
// time, assigns its predecessor, and invokes done(predID) when the
// center's serialized processing of it finishes.
func (e *engine) serve(ctx *sim.Context, done func(ctx *sim.Context, predID int)) {
	start := ctx.Now()
	if e.busyUntil > start {
		start = e.busyUntil
	}
	finish := start + serviceTime
	e.busyUntil = finish
	pred := e.lastReq
	ctx.After(finish-ctx.Now(), func(ctx *sim.Context) { done(ctx, pred) })
}

// Run executes the centralized protocol for a static request set over
// graph g.
func Run(g *graph.Graph, set queuing.Set, opts Options) (*Result, error) {
	if err := set.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	if int(opts.Center) < 0 || int(opts.Center) >= g.NumNodes() {
		return nil, fmt.Errorf("centralized: center %d out of range", opts.Center)
	}
	topo := sim.NewMetricTopology(g)
	s := sim.New(sim.Config{
		Topology:    topo,
		Latency:     opts.Latency,
		Arbitration: opts.Arbitration,
		Seed:        opts.Seed,
		MaxEvents:   sim.SatAdd(sim.SatMul(int64(len(set)), 16), 1024),
	})
	res := &Result{
		Set:         set,
		Completions: make([]Completion, len(set)),
	}
	for i := range res.Completions {
		res.Completions[i].PredID = -2
	}
	eng := &engine{center: opts.Center, lastReq: -1}
	completed := 0
	record := func(reqID, predID int, at sim.Time) {
		c := &res.Completions[reqID]
		if c.PredID != -2 {
			panic("centralized: request completed twice")
		}
		hops := 0
		if origin := set[reqID].Node; origin != eng.center {
			hops = topo.Hops(origin, eng.center) + topo.Hops(eng.center, origin)
		}
		*c = Completion{Req: set[reqID], PredID: predID, At: at, Sink: eng.center, Hops: hops, PhysHops: hops}
		completed++
	}
	admit := func(ctx *sim.Context, reqID int, origin graph.NodeID) {
		eng.serve(ctx, func(ctx *sim.Context, pred int) {
			if origin == eng.center {
				record(reqID, pred, ctx.Now())
				return
			}
			ctx.Send(eng.center, origin, replyMsg{reqID: reqID, predID: pred})
		})
		eng.lastReq = reqID
	}

	s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
		switch m := msg.(type) {
		case reqMsg:
			if at != eng.center {
				panic("centralized: request message at non-center node")
			}
			admit(ctx, m.reqID, m.origin)
		case replyMsg:
			record(m.reqID, m.predID, ctx.Now())
		default:
			panic(fmt.Sprintf("centralized: unexpected message %T", msg))
		}
	})
	s.Reserve(len(set))
	for _, r := range set {
		req := r
		s.ScheduleAt(req.Time, func(ctx *sim.Context) {
			if req.Node == eng.center {
				admit(ctx, req.ID, req.Node)
				return
			}
			ctx.Send(req.Node, eng.center, reqMsg{reqID: req.ID, origin: req.Node})
		})
	}
	res.Makespan = s.Run()
	if completed != len(set) {
		return nil, fmt.Errorf("centralized: completed %d of %d requests", completed, len(set))
	}
	preds := make([]int, len(set))
	for i, c := range res.Completions {
		preds[i] = c.PredID
		res.TotalLatency += c.Latency()
		res.TotalHops += int64(c.Hops)
		res.MaxHops = max(res.MaxHops, c.Hops)
	}
	order, err := queuing.OrderFromPredecessors(preds)
	if err != nil {
		return nil, fmt.Errorf("centralized: %w", err)
	}
	res.Order = order
	return res, nil
}
