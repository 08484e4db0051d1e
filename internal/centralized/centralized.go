// Package centralized implements the centralized queuing protocol the
// paper compares against in Section 5: a globally known central node
// stores the current tail of the total order; every queuing request costs
// one message to the central node and one message back. The central node
// serializes request processing (one message per service-time unit),
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
	"repro/internal/sim"
)

// Options configures a centralized-protocol run.
type Options struct {
	// Center is the central node (queue-tail holder).
	Center graph.NodeID
	// ServiceTime is the time the central node needs per request message;
	// 0 defaults to 1. This models the serialization bottleneck.
	ServiceTime sim.Time
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed drives random latency/arbitration.
	Seed int64
}

// Completion records the queuing of one request by the centralized
// protocol.
type Completion struct {
	Req queuing.Request
	// PredID is the predecessor request ID (-1 = the virtual root).
	PredID int
	// At is when the requester received the reply naming its predecessor
	// (the experiment's completion definition in Section 5).
	At sim.Time
	// Hops is the physical link traversals of the request + reply pair.
	Hops int
}

// Latency returns At − issue time.
func (c Completion) Latency() int64 { return int64(c.At - c.Req.Time) }

// Result aggregates a static-set centralized run.
type Result struct {
	Set          queuing.Set
	Completions  []Completion
	Order        queuing.Order
	TotalLatency int64
	TotalHops    int64
	Makespan     sim.Time
}

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

// engine holds the central node's serialization state, shared by static
// and closed-loop runs.
type engine struct {
	center    graph.NodeID
	service   sim.Time
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
	finish := start + e.service
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
	service := opts.ServiceTime
	if service <= 0 {
		service = 1
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
	eng := &engine{center: opts.Center, service: service, lastReq: -1}
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
		*c = Completion{Req: set[reqID], PredID: predID, At: at, Hops: hops}
		res.TotalHops += int64(hops)
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
	succ := make(map[int]int, len(set))
	for i, c := range res.Completions {
		if _, dup := succ[c.PredID]; dup {
			return nil, fmt.Errorf("centralized: duplicate successor for request %d", c.PredID)
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
		return nil, fmt.Errorf("centralized: broken predecessor chain")
	}
	res.Order = order
	for _, c := range res.Completions {
		res.TotalLatency += c.Latency()
	}
	return res, nil
}
