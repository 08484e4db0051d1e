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
//     after FailoverDelay the smallest live node becomes the new
//     (sticky) center, requests caught at the old center re-issue there,
//     and dropped requests/replies retry once the blocking entity or the
//     failover completes. The plan must be Healing.
//   - Workers is accepted and ignored, as by every driver (see
//     loop.Spec.Workers).
type LoopConfig struct {
	loop.Spec
	// Center is the coordinator node.
	Center graph.NodeID
	// ServiceTime is the center's per-request serialization time (0 = 1).
	ServiceTime sim.Time
	// FailoverDelay is the unavailability window after a center failure
	// before the replacement center serves (0 = 8 time units).
	FailoverDelay sim.Time
}

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

type loopReq struct{ origin graph.NodeID }

type loopReply struct{}

func (*loopReq) isClMsg()   {}
func (*loopReply) isClMsg() {}

// clState is the closed-loop driver state, O(n) like the other
// protocols' loops: at most one request per node is in flight, so issue
// times key by node and the pre-boxed request message is reused across a
// node's successive requests. Node timers carry only the node, so the
// per-node serving flag distinguishes the two timer meanings — a
// serve-finish at the center for v's request vs v's own think-time
// re-issue tick — which are never pending simultaneously for one node
// (a request must be replied to before its issuer thinks again).
type clState struct {
	cfg       LoopConfig
	topo      sim.Topology
	center    graph.NodeID
	service   sim.Time
	think     sim.Time
	busyUntil sim.Time

	issued    []sim.Time
	serving   []bool
	msgs      []loopReq
	rep       loopReply
	remaining []int32
	res       *LoopResult

	// Failover state, used only under faults. epoch identifies the
	// current coordinator regime; a request admitted under an older
	// epoch was caught at a failed center and re-issues. failoverSeq
	// guards against superseded failover timers.
	lost        []bool
	affected    []bool
	serveEpoch  []int64
	epoch       int64
	failoverAt  sim.Time
	nextCenter  graph.NodeID
	failoverSeq int64
	failDelay   sim.Time
}

// RunClosedLoop executes the closed-loop centralized experiment on g.
func RunClosedLoop(g *graph.Graph, cfg LoopConfig) (*LoopResult, error) {
	return RunClosedLoopTopo(sim.NewMetricTopology(g), cfg)
}

// RunClosedLoopTopo is RunClosedLoop over an arbitrary metric topology;
// the implicit sim.CompleteTopology keeps million-node runs free of the
// O(n²) distance matrix.
func RunClosedLoopTopo(topo sim.Topology, cfg LoopConfig) (*LoopResult, error) {
	n := topo.NumNodes()
	if cfg.PerNode < 1 {
		return nil, fmt.Errorf("centralized: PerNode must be >= 1")
	}
	if cfg.PerNode > math.MaxInt32 {
		// clState.remaining is an int32: a larger count would truncate.
		return nil, fmt.Errorf("centralized: PerNode must be <= %d, got %d", math.MaxInt32, cfg.PerNode)
	}
	if int(cfg.Center) < 0 || int(cfg.Center) >= n {
		return nil, fmt.Errorf("centralized: center %d out of range", cfg.Center)
	}
	think := cfg.ThinkTime
	if think <= 0 {
		think = 1
	}
	service := cfg.ServiceTime
	if service <= 0 {
		service = 1
	}
	total := int64(cfg.PerNode) * int64(n)
	st := &clState{
		cfg:       cfg,
		topo:      topo,
		center:    cfg.Center,
		service:   service,
		think:     think,
		issued:    make([]sim.Time, n),
		serving:   make([]bool, n),
		msgs:      make([]loopReq, n),
		remaining: make([]int32, n),
		res:       &LoopResult{N: n},
	}
	if err := cfg.Faults.Validate(st.topo); err != nil {
		return nil, fmt.Errorf("centralized: %w", err)
	}
	if cfg.Faults != nil && !cfg.Faults.Healing() {
		return nil, fmt.Errorf("centralized: closed loop requires a healing fault plan (every down matched by an up)")
	}
	for v := range st.remaining {
		st.remaining[v] = int32(cfg.PerNode)
		st.msgs[v].origin = graph.NodeID(v)
	}

	budget := sim.SatAdd(sim.SatMul(total, 16), 1024)
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
		return nil, fmt.Errorf("centralized closed loop: %w", err)
	}
	s := sim.New(scfg)
	if cfg.Faults != nil {
		st.lost = make([]bool, n)
		st.affected = make([]bool, n)
		st.serveEpoch = make([]int64, n)
		st.failDelay = cfg.FailoverDelay
		if st.failDelay <= 0 {
			st.failDelay = 8
		}
		s.SetFaultObserver(st.onFault)
		s.SetBlockedHandler(st.onBlocked)
	}
	s.SetAllHandlers(st.handle)
	s.SetTimerHandler(st.timer)
	s.Reserve(n)
	for v := 0; v < n; v++ {
		s.ScheduleNodeAt(0, graph.NodeID(v))
	}
	st.res.Makespan = s.Run()
	if cfg.DrainStats != nil {
		*cfg.DrainStats = s.DrainStats()
	}
	st.res.Events = s.EventsProcessed()
	st.res.Dropped = s.MessagesDropped()
	st.res.Deferred = s.MessagesDeferred()
	if st.res.Requests != total {
		return nil, fmt.Errorf("centralized: closed loop completed %d of %d", st.res.Requests, total)
	}
	return st.res, nil
}

// onFault reacts to the effective coordinator dying: after FailoverDelay
// the smallest live node becomes the new center (sticky — the old center
// returning does not reclaim the role). A failure of the
// pending replacement re-arms the failover.
func (st *clState) onFault(ctx *sim.Context, ev sim.FaultEvent) {
	if ev.Kind != sim.NodeDown {
		return
	}
	effective := st.center
	if st.failoverAt > ctx.Now() {
		effective = st.nextCenter
	}
	if ev.U != effective {
		return
	}
	st.armFailover(ctx, ev.U)
}

// armFailover elects a replacement for the failed coordinator and
// schedules the takeover after the failover window.
func (st *clState) armFailover(ctx *sim.Context, failed graph.NodeID) {
	st.nextCenter = st.pickCenter(ctx, failed)
	st.failoverAt = ctx.Now() + st.failDelay
	st.failoverSeq++
	seq := st.failoverSeq
	ctx.After(st.failDelay, func(ctx *sim.Context) {
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
		st.center = st.nextCenter
		st.epoch++
		st.busyUntil = ctx.Now()
	})
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

func (st *clState) timer(ctx *sim.Context, v graph.NodeID) {
	if st.serving[v] {
		st.serving[v] = false
		if st.serveEpoch != nil && st.serveEpoch[v] != st.epoch {
			// The serve was running at a center that failed before the
			// request could queue: it is lost with the coordinator and
			// re-issues against the replacement.
			st.affected[v] = true
			st.lost[v] = true
			st.retryAt(ctx, v, ctx.Now())
			return
		}
		st.queued(ctx, v)
		if v == st.center {
			st.scheduleNext(ctx, v)
			return
		}
		ctx.Send(st.center, v, &st.rep)
		return
	}
	st.issue(ctx, v)
}

//arrow:hotpath one call per delivered request/reply message
func (st *clState) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *loopReq:
		if at != st.center {
			if st.lost == nil {
				panic("centralized: request at non-center node")
			}
			// A request delivered to a node that lost the coordinator
			// role mid-flight (failover): redirect to the current center.
			st.affected[m.origin] = true
			ctx.Send(at, st.center, m)
			return
		}
		st.serve(ctx, m.origin)
	case *loopReply:
		st.scheduleNext(ctx, at)
	default:
		panic(fmt.Sprintf("centralized: unexpected message %T", msg))
	}
}

//arrow:hotpath one call per request issued
func (st *clState) issue(ctx *sim.Context, v graph.NodeID) {
	if st.lost != nil && st.lost[v] {
		// Re-issue the lost request against the current center, keeping
		// the original issue time so the latency carries the outage.
		st.lost[v] = false
		st.res.Reissued++
		if v == st.center {
			st.serve(ctx, v)
			return
		}
		ctx.Send(v, st.center, &st.msgs[v])
		return
	}
	if st.remaining[v] == 0 {
		return
	}
	st.remaining[v]--
	st.issued[v] = ctx.Now()
	if v == st.center {
		st.serve(ctx, v)
		return
	}
	ctx.Send(v, st.center, &st.msgs[v])
}

// serve admits v's request into the center's serialized processing and
// schedules its finish as a node timer for v.
func (st *clState) serve(ctx *sim.Context, v graph.NodeID) {
	start := ctx.Now()
	if st.busyUntil > start {
		start = st.busyUntil
	}
	finish := start + st.service
	st.busyUntil = finish
	st.serving[v] = true
	if st.serveEpoch != nil {
		st.serveEpoch[v] = st.epoch
	}
	ctx.AfterNode(finish-ctx.Now(), v)
}

// queued records v's request joining the total order at the center
// (after its serialization wait) — the latency endpoint every protocol's
// loop result measures, so the baselines column compares like with like.
// The reply only tells the requester to re-issue.
func (st *clState) queued(ctx *sim.Context, v graph.NodeID) {
	lat := int64(ctx.Now() - st.issued[v])
	st.res.Requests++
	st.res.TotalLatency += lat
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
		st.cfg.Recorder.RecordRequest(lat, h)
	}
	if st.affected != nil && st.affected[v] {
		st.res.Affected++
		st.affected[v] = false
	}
}

func (st *clState) scheduleNext(ctx *sim.Context, v graph.NodeID) {
	if st.remaining[v] > 0 {
		ctx.AfterNode(st.think, v)
	}
}
