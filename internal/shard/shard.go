// Package shard is the closed-loop driver for every pointer-chasing
// protocol (arrow, NTA, and the sharded coordinator): every node
// issues PerNode requests one at a time, each request chases its
// object's pointer discipline hop by hop as real simulator messages, the
// node where the chase ends notifies the requester, and the requester
// thinks and re-issues. k independent protocol instances — one per
// object, each with its own pointer state and root — ride one shared
// simulator network whose links carry the combined traffic; each request
// draws its object from a deterministic Zipf popularity law. With a
// positive LinkTxTime the shared links serialize cross-object traffic,
// so hot-object interference shows up as queueing delay on every object
// sharing the congested links rather than superposing for free. The
// single-object experiments of the paper's Section 5 are the k = 1 case.
//
// The pointer discipline is supplied as an object-keyed Stepper; the
// driver owns issue bookkeeping, the object draw, per-object and
// aggregate accounting, message pre-boxing, re-issue-at-heal fault
// recovery and the divergence guard, so they exist once and cannot drift
// between protocols.
//
// Replay is the Stepper's other executor: it runs a static request set
// (the paper's Section 3 setting) through the same two steps and retains
// every completion and the queuing order. arrow.Run and nta.Run are
// Replay over the stepper their closed loops hand to the Driver.
package shard

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Stepper is a protocol's object-keyed pointer discipline — the two
// atomic steps of the paper's Section 2, and all the protocol there is:
// Driver (closed loops) and Replay (static request sets) are its only
// simulated executors. Both methods mutate only the pointer state of the
// given object, and only at the node the call is made at (v, at); a
// started find is done at exactly one node; with no find in flight
// exactly one node per object holds the tail. ForwardFind receives both
// the previous hop (from) and the requester (origin): tree protocols
// reverse pointers toward the previous hop (arrow), metric protocols
// toward the origin (NTA).
type Stepper interface {
	// StartFind begins a request for object obj at node v. If v already
	// holds the object's tail, local is true and no message is sent;
	// otherwise the request forwards to target.
	StartFind(obj int32, v graph.NodeID) (target graph.NodeID, local bool)
	// ForwardFind processes a request for (obj, origin) arriving at node
	// at from node from. done reports the chase ended at at; otherwise
	// the request forwards to next.
	ForwardFind(obj int32, at, from, origin graph.NodeID) (next graph.NodeID, done bool)
}

// ShardSafe marked a Stepper whose pointer state is partitioned by node
// (StartFind(obj, v) touches only state keyed by v, ForwardFind(obj, at,
// ...) only state keyed by at), which the deleted parallel drain needed
// of a stepper it ran on node shards. Nothing in the repo reads the
// marker any more: every run is the serial loop. It stays, with its
// ShardSafeStepper methods on arrow.ShardForest, Reversal and
// centralized.ShardCenters, because bench/ — frozen between benchmark
// PRs — re-exports it through its decorators and tests that they keep
// it; it leaves with the benchmark PR of ROADMAP item 1.
type ShardSafe interface {
	ShardSafeStepper()
}

// ReplyRouter is optionally implemented by a Stepper whose network has
// no direct link from the sink back to the requester: the completion
// notification then travels hop by hop, every hop charged to ReplyHops
// (arrow over its spanning tree). Without it the sink sends the reply
// straight to the requester.
type ReplyRouter interface {
	// ReplyHop returns the node after at on the route to origin.
	ReplyHop(at, origin graph.NodeID) graph.NodeID
}

// Spec drives a closed-loop run. The embedded loop.Spec carries the
// shared run knobs. Under Faults the driver recovers by re-issue: a
// requester whose find was dropped re-issues once the blocking entity
// recovers (a split pointer chain re-forms as finds terminate at the
// requester, which the re-issue then queues behind), and one whose
// completion notification was dropped resumes its loop the same way.
// Fault plans need Objects == 1.
type Spec struct {
	loop.Spec
	// Objects is the number of independent protocol instances sharing
	// the network; must be >= 1.
	Objects int
	// Skew is the Zipf exponent of object popularity: each request
	// draws object o with weight (o+1)^-Skew (0 = uniform).
	Skew float64
	// ObjectRecorders, when non-nil, attaches one recorder per object:
	// entry o observes exactly object o's completions (nil entries skip
	// an object). Length must equal Objects. The aggregate
	// Spec.Recorder, when set, additionally observes every completion.
	ObjectRecorders []stats.Recorder
}

// Result aggregates a run: the closed-loop counter shape once for the
// combined traffic and once per object.
type Result struct {
	// N is the node count, Objects the object count.
	N       int
	Objects int
	// Agg is the aggregate over all objects. Its Makespan is the time
	// to drain the combined load and its Events the total event count.
	Agg loop.Result
	// PerObject holds each object's own counters, indexed by object.
	// Makespan, Events, Dropped and Deferred are global quantities and
	// stay zero here; N is the shared node count.
	PerObject []loop.Result
}

// shardMsg is the driver's message family; the marker method keys it
// for arrowlint's msgswitch analyzer.
type shardMsg interface{ isShardMsg() }

// findMsg is a node's pre-boxed find: the requester, the object of its
// current request and the hops that request has made so far. It travels
// by pointer, so every forwarder counts the hop where it reads the
// origin — one cache line.
type findMsg struct {
	origin graph.NodeID
	obj    int32
	hops   int32
}

type replyMsg struct{ origin graph.NodeID }

// nodeState is everything the driver keeps per node, 32 bytes: the issue
// time and remaining count of its closed loop and its two pre-boxed
// messages, which the simulator carries as pointers into this record. A
// forwarded find touches one line at its origin (origin, obj, hops), a
// completion one (hops, issueTime, the reply).
type nodeState struct {
	issueTime sim.Time
	find      findMsg
	reply     replyMsg
	remaining int32
}

func (*findMsg) isShardMsg()  {}
func (*replyMsg) isShardMsg() {}

// Driver is one closed-loop run, built by New and executed by Run. It
// is O(n + k), not O(PerNode·n): a node's next request issues
// only after the completion notification for its previous one, so at
// most one request per node is in flight, all per-request bookkeeping is
// keyed by the issuing node, and the pre-boxed messages are reused
// across a node's successive requests (forwarding passes the same
// pointer at every hop, so no send boxes an interface) — at the paper's
// scale (100k requests per node) per-request arrays would cost hundreds
// of MB per sweep cell. Per-node state is one 32-byte nodeState record
// per node, so a million-node run's driver state is 32 MB and an event
// touches one line of it. A node's findMsg is re-stamped with the
// object of each new request; that is safe for the same reason the
// reuse itself is — the previous request's messages are done traveling
// before the node's next issue.
//
// Most callers want Run, the function. The two-step form exists for a
// protocol whose fault recovery is more than re-issue-at-heal (arrow's
// freeze → drain → repair): it replaces the simulator's handlers with
// gates that decide and then delegate to Issue, Handle and Blocked.
type Driver struct {
	spec  Spec
	step  Stepper
	route ReplyRouter // nil: replies go straight to the requester
	proto string
	zipf  *workload.Zipf
	sim   *sim.Simulator
	n     int
	think sim.Time

	nodes []nodeState

	// res[obj] accumulates object obj's counters.
	res []loop.Result

	// lost/affected are the fault-recovery state, nil in fault-free
	// runs — the hot path pays one nil check per issue and per
	// completion. lost marks nodes whose current find was dropped,
	// affected marks requests a fault touched (counted at completion).
	lost     []bool
	affected []bool
	// onComplete, when set, is called at each completion of a run under
	// faults, before the requester is notified.
	onComplete func(*sim.Context)
}

// eventBudget is the divergence guard: each request costs at most ~2n
// message events plus a reply and timers, independent of the object
// count (objects partition the requests, they do not multiply them).
// Saturating arithmetic keeps the guard meaningful at scales where the
// product overflows int64 (a wrapped value would either disable the
// guard or panic a healthy run).
func eventBudget(total int64, n int) int64 {
	return sim.SatAdd(sim.SatMul(total, int64(4*n+8)), 1024)
}

// Run executes the closed-loop experiment over topo with the given
// object-keyed pointer discipline. proto prefixes error messages.
func Run(topo sim.Topology, step Stepper, proto string, spec Spec) (*Result, error) {
	d, err := New(topo, step, proto, spec)
	if err != nil {
		return nil, err
	}
	return d.Run()
}

// New validates spec and builds the run's simulator with the driver's
// own handlers installed.
func New(topo sim.Topology, step Stepper, proto string, spec Spec) (*Driver, error) {
	n := topo.NumNodes()
	if spec.PerNode < 1 {
		return nil, fmt.Errorf("%s: PerNode must be >= 1", proto)
	}
	if spec.PerNode > math.MaxInt32 {
		// nodeState.remaining is an int32: a larger count would truncate.
		return nil, fmt.Errorf("%s: PerNode must be <= %d, got %d", proto, math.MaxInt32, spec.PerNode)
	}
	if spec.Objects < 1 {
		return nil, fmt.Errorf("%s: Objects must be >= 1, got %d", proto, spec.Objects)
	}
	if !(spec.Skew >= 0) { // NaN too
		return nil, fmt.Errorf("%s: Skew must be >= 0, got %g", proto, spec.Skew)
	}
	if spec.ObjectRecorders != nil && len(spec.ObjectRecorders) != spec.Objects {
		return nil, fmt.Errorf("%s: ObjectRecorders has %d entries for %d objects",
			proto, len(spec.ObjectRecorders), spec.Objects)
	}
	if spec.Faults != nil {
		if spec.Objects > 1 {
			return nil, fmt.Errorf("%s: fault plans are not supported on multi-object runs", proto)
		}
		if err := spec.Faults.Validate(topo); err != nil {
			return nil, fmt.Errorf("%s: %w", proto, err)
		}
		if !spec.Faults.Healing() {
			return nil, fmt.Errorf("%s: closed loop requires a healing fault plan (every down matched by an up)", proto)
		}
	}
	k := spec.Objects
	d := &Driver{
		spec:  spec,
		step:  step,
		proto: proto,
		zipf:  workload.NewZipf(k, spec.Skew),
		n:     n,
		think: max(spec.ThinkTime, 1),
		nodes: make([]nodeState, n),
		res:   make([]loop.Result, k),
	}
	d.route, _ = step.(ReplyRouter)
	for v := range d.nodes {
		nd := &d.nodes[v]
		nd.remaining = int32(spec.PerNode)
		nd.find.origin = graph.NodeID(v)
		nd.reply.origin = graph.NodeID(v)
	}
	budget := eventBudget(int64(spec.PerNode)*int64(n), n)
	if spec.Faults != nil {
		// Faulty runs add re-issues and any repair traffic the caller
		// embeds, bounded by the plan's episode count.
		budget = sim.SatMul(budget, 4)
	}
	scfg := sim.Config{
		Topology:    topo,
		Latency:     spec.Latency,
		Arbitration: spec.Arbitration,
		Seed:        spec.Seed,
		MaxEvents:   budget,
		Faults:      spec.Faults,
		LinkTxTime:  spec.LinkTxTime,
	}
	// Surface simulator-config violations (negative LinkTxTime) as errors
	// rather than tripping sim.New's last-resort panic.
	if err := scfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s closed loop: %w", proto, err)
	}
	d.sim = sim.New(scfg)
	if spec.Faults != nil {
		d.lost = make([]bool, n)
		d.affected = make([]bool, n)
		d.sim.SetBlockedHandler(d.onBlocked)
	}
	d.sim.SetAllHandlers(d.Handle)
	// Issue timers dispatch by node through the TimerHandler: neither the
	// initial injection nor the per-request re-issue captures a closure.
	d.sim.SetTimerHandler(d.issue)
	return d, nil
}

// Sim returns the run's simulator, for a caller that gates the driver's
// handlers behind its own.
func (d *Driver) Sim() *sim.Simulator { return d.sim }

// OnComplete registers fn to run at every completion, after the
// request is accounted and before its requester is notified. Only runs
// under a fault plan call it.
func (d *Driver) OnComplete(fn func(*sim.Context)) { d.onComplete = fn }

// Run injects every node's first issue, drains the simulator and merges
// the result. It errors if any request never completed.
func (d *Driver) Run() (*Result, error) {
	d.sim.Reserve(d.n)
	for v := 0; v < d.n; v++ {
		d.sim.ScheduleNodeAt(0, graph.NodeID(v))
	}
	makespan := d.sim.Run()
	if d.spec.DrainStats != nil {
		*d.spec.DrainStats = d.sim.DrainStats()
	}
	res := d.merge()
	res.Agg.Makespan = makespan
	res.Agg.Events = d.sim.EventsProcessed()
	res.Agg.Dropped = d.sim.MessagesDropped()
	res.Agg.Deferred = d.sim.MessagesDeferred()
	if total := int64(d.spec.PerNode) * int64(d.n); res.Agg.Requests != total {
		return nil, fmt.Errorf("%s: closed loop completed %d of %d requests", d.proto, res.Agg.Requests, total)
	}
	return res, nil
}

// merge hands the per-object accumulators to the result and sums their
// aggregate.
func (d *Driver) merge() *Result {
	res := &Result{
		N:         d.n,
		Objects:   d.spec.Objects,
		Agg:       loop.Result{N: d.n},
		PerObject: d.res,
	}
	add := func(to, r *loop.Result) {
		to.Requests += r.Requests
		to.QueueHops += r.QueueHops
		to.ReplyHops += r.ReplyHops
		to.LocalCompletions += r.LocalCompletions
		to.TotalLatency += r.TotalLatency
		to.Reissued += r.Reissued
		to.RepliesLost += r.RepliesLost
		to.Affected += r.Affected
		to.MaxQueueHops = max(to.MaxQueueHops, r.MaxQueueHops)
	}
	for o := range res.PerObject {
		po := &res.PerObject[o]
		po.N = d.n
		add(&res.Agg, po)
	}
	return res
}

// onBlocked is the driver's own fault recovery: a requester whose find
// was dropped re-issues once the blocking entity recovers.
func (d *Driver) onBlocked(ctx *sim.Context, from, to graph.NodeID, msg sim.Message, upAt sim.Time, dropped bool) {
	if v, lost := d.Blocked(ctx, msg, upAt, dropped); lost {
		d.retryAt(ctx, v, upAt)
	}
}

// Blocked accounts one driver message a fault dropped or stalled; its
// request counts as affected either way. A dropped reply means the
// request completed but its issuer never heard: a timer at the heal
// instant resumes the issuer's loop. A dropped find loses origin's
// current attempt: Blocked marks it so origin's next Issue re-issues it,
// and reports it (lost) so the caller decides when that Issue fires.
func (d *Driver) Blocked(ctx *sim.Context, msg sim.Message, upAt sim.Time, dropped bool) (origin graph.NodeID, lost bool) {
	switch m := msg.(type) {
	case *findMsg:
		d.affected[m.origin] = true
		if dropped {
			d.lost[m.origin] = true
			return m.origin, true
		}
	case *replyMsg:
		d.affected[m.origin] = true
		if dropped {
			d.res[d.nodes[m.origin].find.obj].RepliesLost++
			d.retryAt(ctx, m.origin, upAt)
		}
	}
	return 0, false
}

func (d *Driver) retryAt(ctx *sim.Context, v graph.NodeID, upAt sim.Time) {
	if upAt == sim.FaultNever {
		// Permanently unserviceable; the drain check reports the
		// shortfall (healing plans never get here).
		return
	}
	ctx.AfterNode(upAt-ctx.Now()+1, v)
}

// Issue is the timer step for a caller gating it: it reports whether v
// had anything to issue — a request lost to a fault, or its next one.
func (d *Driver) Issue(ctx *sim.Context, v graph.NodeID) bool {
	if d.nodes[v].remaining == 0 && (d.lost == nil || !d.lost[v]) {
		return false
	}
	d.issue(ctx, v)
	return true
}

//arrow:hotpath one call per request issued (object draw included)
func (d *Driver) issue(ctx *sim.Context, v graph.NodeID) {
	nd := &d.nodes[v]
	m := &nd.find
	if d.lost != nil && d.lost[v] {
		// Re-issue a request whose find a fault destroyed. It keeps its
		// object and its original issue time, so its latency carries the
		// outage. StartFind runs against the current pointer state: the
		// partial path reversal of the lost attempt left every touched
		// pointer aimed at v (or repair has restored a legal state), so
		// chains still terminate.
		d.lost[v] = false
		d.res[m.obj].Reissued++
	} else {
		if nd.remaining == 0 {
			return
		}
		// The request index is PerNode − remaining: the Zipf draw is a
		// pure function of (seed, node, index).
		m.obj = d.zipf.Draw(d.spec.Seed, v, int64(d.spec.PerNode)-int64(nd.remaining))
		nd.remaining--
		nd.issueTime = ctx.Now()
	}
	target, local := d.step.StartFind(m.obj, v)
	if local {
		// The total order itself is not retained in closed-loop runs, so
		// queuing behind the node's previous request is purely local.
		m.hops = 0
		d.completeAt(ctx, m.obj, v, v)
		return
	}
	m.hops = 1
	ctx.Send(v, target, m)
}

// Handle is the driver's message handler.
//
//arrow:hotpath one call per delivered find/reply message
func (d *Driver) Handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	switch m := msg.(type) {
	case *findMsg:
		next, done := d.step.ForwardFind(m.obj, at, from, m.origin)
		if done {
			d.completeAt(ctx, m.obj, m.origin, at)
			return
		}
		m.hops++
		ctx.Send(at, next, m)
	case *replyMsg:
		if at == m.origin {
			d.scheduleNext(ctx, at)
			return
		}
		// Only a ReplyRouter's replies stop short of the requester. The
		// request's object is still stamped on the requester's own find:
		// it cannot re-issue before this reply arrives.
		d.res[d.nodes[m.origin].find.obj].ReplyHops++
		ctx.Send(at, d.route.ReplyHop(at, m.origin), m)
	default:
		panic(fmt.Sprintf("%s: unexpected message %T", d.proto, msg))
	}
}

// completeAt records the queuing of origin's current request for obj at
// sink and notifies the requester so it can issue its next request.
// Counters land in the object's accumulator; the per-object and the
// aggregate recorder each see the request.
func (d *Driver) completeAt(ctx *sim.Context, obj int32, origin, sink graph.NodeID) {
	res := &d.res[obj]
	nd := &d.nodes[origin]
	lat := int64(ctx.Now() - nd.issueTime)
	h := int(nd.find.hops)
	res.Requests++
	res.TotalLatency += lat
	res.QueueHops += int64(h)
	if h > res.MaxQueueHops {
		res.MaxQueueHops = h
	}
	if rec := d.spec.Recorder; rec != nil {
		rec.RecordRequest(lat, h)
	}
	if d.spec.ObjectRecorders != nil {
		if rec := d.spec.ObjectRecorders[obj]; rec != nil {
			rec.RecordRequest(lat, h)
		}
	}
	if d.affected != nil {
		if d.affected[origin] {
			res.Affected++
			d.affected[origin] = false
		}
		if d.onComplete != nil {
			d.onComplete(ctx)
		}
	}
	if origin == sink {
		res.LocalCompletions++
		d.scheduleNext(ctx, origin)
		return
	}
	res.ReplyHops++
	next := origin
	if d.route != nil {
		next = d.route.ReplyHop(sink, origin)
	}
	ctx.Send(sink, next, &nd.reply)
}

func (d *Driver) scheduleNext(ctx *sim.Context, v graph.NodeID) {
	if d.nodes[v].remaining > 0 {
		ctx.AfterNode(d.think, v)
	}
}
