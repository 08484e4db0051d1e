package centralized

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/sim"
)

// LoopConfig drives the closed-loop centralized experiment matching
// arrow.RunClosedLoop: every node issues PerNode requests, each issued
// ThinkTime after the reply for the previous one arrives. The shared run
// knobs live in the embedded loop.Spec, with centralized-specific
// refinements:
//
//   - Recorder receives the queue-side hop count (0 for requests issued
//     at the center) alongside each queuing latency.
//   - Faults runs with coordinator-failure semantics: when the center
//     dies the system is unavailable until a deterministic failover —
//     after failoverDelay the smallest live node becomes the new
//     (sticky) center, the requests in service or waiting at the dead
//     center are lost with it and re-issue there, and dropped
//     requests/replies retry once the blocking entity or the failover
//     completes. The plan must be Healing.
//   - Workers is accepted and ignored, as by every driver (see
//     loop.Spec.Workers).
type LoopConfig struct {
	loop.Spec
	// Center is the coordinator node.
	Center graph.NodeID
}

// failoverDelay is the unavailability window after a center failure
// before the replacement center serves.
const failoverDelay sim.Time = 8

// LoopResult aggregates a closed-loop centralized run — the shared
// closed-loop counter shape (see loop.Result). Request traffic (node ->
// center) and reply traffic (center -> node) are counted separately so
// comparisons against arrow charge the same sides of the round trip:
// QueueHops matches arrow's queue messages, ReplyHops its completion
// notifications, both in physical link traversals. TotalLatency sums
// issue -> queued-at-center latencies (arrival plus the serialization
// wait) — the same endpoint the other protocols' loop results measure.
// The Repair* fields stay zero: the centralized protocol recovers by
// failover and re-issue, not distributed repair.
type LoopResult = loop.Result

// clMsg is the closed-loop driver's message family; the marker method
// lets arrowlint's msgswitch analyzer check switch exhaustiveness.
type clMsg interface{ isClMsg() }

// loopReq is a request. A fault-free run sends one shared value and takes
// the origin from the sender; a redirected request (faults) carries it.
type loopReq struct{ origin graph.NodeID }

type loopReply struct{}

func (*loopReq) isClMsg()   {}
func (*loopReply) isClMsg() {}

const none graph.NodeID = -1 // the end of the coordinator's queue

// clNode is a node's whole state in a fault-free run without a
// recorder, 8 bytes: the remaining count, and next, which links the
// coordinator's queue. No issue time is kept: TotalLatency is Σ
// completion − Σ issue (see loop.Result.TotalLatency).
type clNode struct {
	remaining int32
	next      graph.NodeID
}

// clState is the closed-loop driver state, O(n) like the other
// protocols' loops. The coordinator's queue is an intrusive FIFO from
// head, whose request is in service, to tail. While it is non-empty one
// serve timer (finishFn) is pending — a plain timer, so a down requester
// does not defer it; node timers are issue ticks only.
type clState struct {
	cfg    LoopConfig
	topo   sim.Topology
	center graph.NodeID
	think  sim.Time
	nodes  []clNode
	// issued[v] is the issue time of v's current request, kept only for
	// cfg.Recorder (nil without one): at most one request per node is in
	// flight, so it keys by node.
	issued   []sim.Time
	req      loopReq
	rep      loopReply
	res      *LoopResult
	head     graph.NodeID
	tail     graph.NodeID
	finishAt sim.Time
	finishFn sim.TimerFunc

	// Fault state, allocated only under a fault plan. failoverSeq guards
	// against superseded failover timers.
	msgs        []loopReq
	lost        []bool
	affected    []bool
	failoverAt  sim.Time
	nextCenter  graph.NodeID
	failoverSeq int64
}

// RunClosedLoop executes the closed-loop centralized experiment on g.
func RunClosedLoop(g *graph.Graph, cfg LoopConfig) (*LoopResult, error) {
	return RunClosedLoopTopo(sim.NewMetricTopology(g), cfg)
}

// RunClosedLoopTopo is RunClosedLoop over an arbitrary metric topology;
// the implicit sim.CompleteTopology keeps million-node runs free of the
// O(n²) distance matrix.
func RunClosedLoopTopo(topo sim.Topology, cfg LoopConfig) (*LoopResult, error) {
	st, s, err := newClosedLoop(topo, cfg)
	if err != nil {
		return nil, err
	}
	st.res.Makespan = s.Run()
	if cfg.DrainStats != nil {
		*cfg.DrainStats = s.DrainStats()
	}
	st.res.Events = s.EventsProcessed()
	st.res.Dropped = s.MessagesDropped()
	st.res.Deferred = s.MessagesDeferred()
	if total := int64(cfg.PerNode) * int64(st.res.N); st.res.Requests != total {
		return nil, fmt.Errorf("centralized: closed loop completed %d of %d", st.res.Requests, total)
	}
	return st.res, nil
}

// newClosedLoop validates cfg and builds the driver state and its
// simulator with every node's first issue tick scheduled at 0.
func newClosedLoop(topo sim.Topology, cfg LoopConfig) (*clState, *sim.Simulator, error) {
	n := topo.NumNodes()
	if cfg.PerNode < 1 {
		return nil, nil, fmt.Errorf("centralized: PerNode must be >= 1")
	}
	if cfg.PerNode > math.MaxInt32 {
		// clNode.remaining is an int32: a larger count would truncate.
		return nil, nil, fmt.Errorf("centralized: PerNode must be <= %d, got %d", math.MaxInt32, cfg.PerNode)
	}
	if int(cfg.Center) < 0 || int(cfg.Center) >= n {
		return nil, nil, fmt.Errorf("centralized: center %d out of range", cfg.Center)
	}
	think := cfg.ThinkTime
	if think <= 0 {
		think = 1
	}
	st := &clState{
		cfg:    cfg,
		topo:   topo,
		center: cfg.Center,
		think:  think,
		nodes:  make([]clNode, n),
		res:    &LoopResult{N: n},
		head:   none,
	}
	if cfg.Recorder != nil {
		st.issued = make([]sim.Time, n)
	}
	st.finishFn = st.finish
	if err := cfg.Faults.Validate(st.topo); err != nil {
		return nil, nil, fmt.Errorf("centralized: %w", err)
	}
	if cfg.Faults != nil && !cfg.Faults.Healing() {
		return nil, nil, fmt.Errorf("centralized: closed loop requires a healing fault plan (every down matched by an up)")
	}
	for v := range st.nodes {
		st.nodes[v].remaining = int32(cfg.PerNode)
	}

	budget := sim.SatAdd(sim.SatMul(int64(cfg.PerNode)*int64(n), 16), 1024)
	if cfg.Faults != nil {
		budget = sim.SatMul(budget, 4)
	}
	scfg := sim.Config{
		Topology:    st.topo,
		Latency:     cfg.Latency,
		Arbitration: cfg.Arbitration,
		Seed:        cfg.Seed,
		MaxEvents:   budget,
		Faults:      cfg.Faults,
		LinkTxTime:  cfg.LinkTxTime,
	}
	if err := scfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("centralized closed loop: %w", err)
	}
	s := sim.New(scfg)
	if cfg.Faults != nil {
		st.msgs = make([]loopReq, n)
		for v := range st.msgs {
			st.msgs[v].origin = graph.NodeID(v)
		}
		st.lost = make([]bool, n)
		st.affected = make([]bool, n)
		s.SetFaultObserver(st.onFault)
		s.SetBlockedHandler(st.onBlocked)
	}
	s.SetAllHandlers(st.handle)
	s.SetTimerHandler(st.issue)
	s.Reserve(n)
	for v := 0; v < n; v++ {
		s.ScheduleNodeAt(0, graph.NodeID(v))
	}
	return st, s, nil
}

// onFault reacts to the effective coordinator dying: after failoverDelay
// the smallest live node becomes the new center (sticky — the old center
// returning does not reclaim the role). A failure of the pending
// replacement re-arms the failover. The queue lives at the installed
// center and dies with it.
func (st *clState) onFault(ctx *sim.Context, ev sim.FaultEvent) {
	if ev.Kind != sim.NodeDown {
		return
	}
	effective := st.center
	if st.failoverAt > ctx.Now() {
		effective = st.nextCenter
	}
	if ev.U == effective {
		st.armFailover(ctx, ev.U)
	}
	if ev.U == st.center {
		st.dropQueue(ctx)
	}
}

// armFailover elects a replacement for the failed coordinator and
// schedules the takeover after the failover window.
func (st *clState) armFailover(ctx *sim.Context, failed graph.NodeID) {
	st.nextCenter = st.pickCenter(ctx, failed)
	st.failoverAt = ctx.Now() + failoverDelay
	st.failoverSeq++
	seq := st.failoverSeq
	ctx.After(failoverDelay, func(ctx *sim.Context) {
		if seq != st.failoverSeq {
			return // superseded by a newer failover
		}
		if ctx.NodeDownUntil(st.nextCenter) != 0 {
			// The elected replacement died during the failover window —
			// possibly at this very instant, which onFault cannot see
			// (fault transitions at time T apply before this timer, and
			// the pending-failover check there excludes T itself). Elect
			// again rather than install a dead coordinator.
			st.armFailover(ctx, st.nextCenter)
			return
		}
		st.dropQueue(ctx) // what the old center admitted since it came back
		st.center = st.nextCenter
	})
}

// dropQueue loses the coordinator's queue: the request in service and
// every waiting one re-issue through retryAt. The pending serve timer
// goes stale (finish drops it).
func (st *clState) dropQueue(ctx *sim.Context) {
	for v := st.head; v != none; v = st.nodes[v].next {
		st.affected[v] = true
		st.lost[v] = true
		st.retryAt(ctx, v, ctx.Now())
	}
	st.head = none
}

// pickCenter deterministically elects the smallest live node other than
// the failed one (falling back to the failed node itself if everything
// is down — the retries then wait out the heal).
func (st *clState) pickCenter(ctx *sim.Context, failed graph.NodeID) graph.NodeID {
	for v := 0; v < st.res.N; v++ {
		node := graph.NodeID(v)
		if node != failed && ctx.NodeDownUntil(node) == 0 {
			return node
		}
	}
	return failed
}

// onBlocked retries requests and replies a fault destroyed: a dropped
// request re-issues once the failover (or the blocking entity) resolves;
// a dropped reply only resumes the requester's loop.
func (st *clState) onBlocked(ctx *sim.Context, from, to graph.NodeID, msg sim.Message, upAt sim.Time, dropped bool) {
	switch m := msg.(type) {
	case *loopReq:
		st.affected[m.origin] = true
		if dropped {
			st.lost[m.origin] = true
			st.retryAt(ctx, m.origin, upAt)
		}
	case *loopReply:
		st.affected[to] = true
		if dropped {
			st.res.RepliesLost++
			st.retryAt(ctx, to, upAt)
		}
	}
}

func (st *clState) retryAt(ctx *sim.Context, v graph.NodeID, upAt sim.Time) {
	// Prefer the failover instant when one is pending: the replacement
	// center serves long before a dead center heals.
	if st.failoverAt > ctx.Now() {
		ctx.AfterNode(st.failoverAt-ctx.Now()+1, v)
		return
	}
	if upAt == sim.FaultNever {
		return // unserviceable; the drain check reports the shortfall
	}
	ctx.AfterNode(upAt-ctx.Now()+1, v)
}

//arrow:hotpath one call per delivered request/reply message
func (st *clState) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *loopReq:
		if at != st.center {
			if st.msgs == nil {
				panic("centralized: request at non-center node")
			}
			// A request delivered to a node that lost the coordinator
			// role mid-flight (failover): redirect to the current center.
			st.affected[m.origin] = true
			ctx.Send(at, st.center, m)
			return
		}
		origin := from
		if st.msgs != nil {
			origin = m.origin
		}
		st.serve(ctx, origin)
	case *loopReply:
		st.scheduleNext(ctx, at)
	default:
		panic(fmt.Sprintf("centralized: unexpected message %T", msg))
	}
}

// issue is the node timer: v's next request, or a lost one re-issued.
//
//arrow:hotpath one call per request issued
func (st *clState) issue(ctx *sim.Context, v graph.NodeID) {
	if st.lost != nil && st.lost[v] {
		// Re-issue the lost request against the current center, keeping
		// the original issue time (its −issue is already in TotalLatency)
		// so the latency carries the outage.
		st.lost[v] = false
		st.res.Reissued++
	} else {
		nd := &st.nodes[v]
		if nd.remaining == 0 {
			return
		}
		nd.remaining--
		st.res.TotalLatency -= ctx.Now()
		if st.issued != nil {
			st.issued[v] = ctx.Now()
		}
	}
	switch {
	case v == st.center:
		st.serve(ctx, v)
	case st.msgs != nil:
		ctx.Send(v, st.center, &st.msgs[v])
	default:
		ctx.Send(v, st.center, &st.req)
	}
}

// serve admits v's request at the center: it joins the tail of the
// queue, or starts service at once when the center is idle.
func (st *clState) serve(ctx *sim.Context, v graph.NodeID) {
	st.nodes[v].next = none
	if st.head == none {
		st.head = v
		st.startService(ctx)
	} else {
		st.nodes[st.tail].next = v
	}
	st.tail = v
}

// startService arms the serve timer for the head's request.
func (st *clState) startService(ctx *sim.Context) {
	st.finishAt = ctx.Now() + serviceTime
	ctx.After(serviceTime, st.finishFn)
}

// finish is the serve timer: the next request's service starts (its
// timer pushed before the reply), then the head's is recorded and
// answered. A timer armed for a queue the center lost finds no head, or
// a finishAt that moved on.
//
//arrow:hotpath one call per request served
func (st *clState) finish(ctx *sim.Context) {
	v := st.head
	if v == none || ctx.Now() != st.finishAt {
		return
	}
	if st.head = st.nodes[v].next; st.head != none {
		st.startService(ctx)
	}
	st.queued(ctx, v)
	if v == st.center {
		st.scheduleNext(ctx, v)
		return
	}
	ctx.Send(st.center, v, &st.rep)
}

// queued records v's request joining the total order at the center
// (after its serialization wait) — the latency endpoint every protocol's
// loop result measures, so the baselines column compares like with like.
// The reply only tells the requester to re-issue.
func (st *clState) queued(ctx *sim.Context, v graph.NodeID) {
	st.res.Requests++
	st.res.TotalLatency += ctx.Now()
	h := 0
	if v == st.center {
		st.res.LocalCompletions++
	} else {
		h = st.topo.Hops(v, st.center)
		st.res.QueueHops += int64(h)
		st.res.ReplyHops += int64(st.topo.Hops(st.center, v))
		if h > st.res.MaxQueueHops {
			st.res.MaxQueueHops = h
		}
	}
	if st.cfg.Recorder != nil {
		st.cfg.Recorder.RecordRequest(ctx.Now()-st.issued[v], h)
	}
	if st.affected != nil && st.affected[v] {
		st.res.Affected++
		st.affected[v] = false
	}
}

func (st *clState) scheduleNext(ctx *sim.Context, v graph.NodeID) {
	if st.nodes[v].remaining > 0 {
		ctx.AfterNode(st.think, v)
	}
}
