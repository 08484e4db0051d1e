package shard

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
)

// ReplayOptions configures a static-set run.
type ReplayOptions struct {
	// Latency is the message delay model; nil means the paper's
	// synchronous unit-latency model.
	Latency sim.LatencyModel
	// Arbitration orders simultaneously arriving messages.
	Arbitration sim.Arbitration
	// Seed keys the random latency and arbitration draws: each hashes
	// (Seed, event seq).
	Seed int64
	// Observer watches the run step by step; nil disables it.
	Observer Observer
}

// Observer is told every protocol step of a replay, in execution order.
// Implementations must be cheap: the hooks fire on every step.
type Observer interface {
	// Request reports req being issued.
	Request(at sim.Time, req queuing.Request)
	// Step reports the Stepper call made at node for request reqID:
	// StartFind when from == node, otherwise ForwardFind of the find
	// that arrived from from. The find moves on to next unless done.
	Step(at sim.Time, reqID int, node, from, next graph.NodeID, done bool)
	// Complete reports reqID queued behind predID at sink.
	Complete(at sim.Time, reqID, predID int, sink graph.NodeID)
}

// Completion records the queuing of one request of a static set.
type Completion struct {
	// Req is the completed request.
	Req queuing.Request
	// PredID is the predecessor request's ID, or -1 for the virtual root
	// request r0.
	PredID int
	// At is the completion time: when the find reached the node whose
	// last request is the predecessor (Definition 3.2).
	At sim.Time
	// Sink is the node at which the find terminated.
	Sink graph.NodeID
	// Hops is the number of find messages sent (0 when the requester was
	// itself the sink). Each crosses one tree link under arrow; on a
	// routed metric a message may cross several links, see PhysHops.
	Hops int
	// PhysHops counts physical link traversals.
	PhysHops int
}

// Latency returns the request's queuing latency At − Time.
func (c Completion) Latency() int64 { return int64(c.At - c.Req.Time) }

// StaticResult collects everything a static-set run produced.
type StaticResult struct {
	// Set is the request set the run served.
	Set queuing.Set
	// Completions is indexed by request ID.
	Completions []Completion
	// Order is the queuing order (request IDs, first queued first),
	// reconstructed from the predecessor chain.
	Order queuing.Order
	// TotalLatency is Σ latencies — the paper's cost metric (Def 3.3).
	TotalLatency int64
	// TotalHops is Σ Hops (= protocol messages sent).
	TotalHops int64
	// MaxHops is the largest per-request hop count (≤ D for arrow, by
	// Demmer–Herlihy).
	MaxHops int
	// Makespan is the simulated time at quiescence.
	Makespan sim.Time
}

// pending is the PredID of a request that has not completed.
const pending = -2

// replay is one static-set run's state. A request's find message is its
// own Completion record, sent by pointer: it accumulates Hops and
// PhysHops as it is forwarded, and a chain of any length boxes nothing.
type replay struct {
	topo  sim.Topology
	step  Stepper
	proto string
	obs   Observer
	// lastReq[v] is the last request v issued; -1 = never (the virtual
	// root request, for the initial tail holder).
	lastReq   []int
	finds     []Completion
	completed int
}

// Replay executes a static request set (the paper's Section 3 setting)
// over topo with the given pointer discipline, as object 0 of step:
// every request is issued at its time, chases the pointers hop by hop as
// simulator messages, and is queued behind the last request of the node
// where the chase ends. Replay and Driver are the only simulated
// executors of a Stepper, so a static run and a closed loop exercise the
// same protocol code. proto prefixes error messages. The run is
// deterministic for fixed options.
func Replay(topo sim.Topology, step Stepper, proto string, set queuing.Set, opts ReplayOptions) (*StaticResult, error) {
	n := topo.NumNodes()
	if err := set.Validate(n); err != nil {
		return nil, err
	}
	r := &replay{
		topo:    topo,
		step:    step,
		proto:   proto,
		obs:     opts.Observer,
		lastReq: make([]int, n),
		finds:   make([]Completion, len(set)),
	}
	for v := range r.lastReq {
		r.lastReq[v] = -1
	}
	s := sim.New(sim.Config{
		Topology:    topo,
		Latency:     opts.Latency,
		Arbitration: opts.Arbitration,
		Seed:        opts.Seed,
		MaxEvents:   eventBudget(int64(len(set)), n),
	})
	s.SetAllHandlers(r.handle)
	// Injection in set order fixes the event sequence, hence every
	// arbitration and latency draw.
	s.Reserve(len(set))
	for i := range set {
		m := &r.finds[i]
		m.Req, m.PredID = set[i], pending
		s.ScheduleAt(m.Req.Time, func(ctx *sim.Context) { r.issue(ctx, m) })
	}
	makespan := s.Run()
	return r.finish(set, makespan)
}

// issue is the initiation step at the requesting node.
func (r *replay) issue(ctx *sim.Context, m *Completion) {
	v := m.Req.Node
	if r.obs != nil {
		r.obs.Request(ctx.Now(), m.Req)
	}
	target, local := r.step.StartFind(0, v)
	if r.obs != nil {
		r.obs.Step(ctx.Now(), m.Req.ID, v, v, target, local)
	}
	if local {
		// v holds the tail: the request queues behind v's own last
		// request (read before the write below) with zero messages.
		r.complete(ctx.Now(), m, v)
		r.lastReq[v] = m.Req.ID
		return
	}
	r.lastReq[v] = m.Req.ID
	r.forward(ctx, m, v, target)
}

// handle is the path-reversal step at a node receiving a find.
//
//arrow:hotpath one call per delivered find message
func (r *replay) handle(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	m, ok := msg.(*Completion)
	if !ok {
		panic(fmt.Sprintf("%s: unexpected message %T", r.proto, msg))
	}
	next, done := r.step.ForwardFind(0, at, from, m.Req.Node)
	if r.obs != nil {
		r.obs.Step(ctx.Now(), m.Req.ID, at, from, next, done)
	}
	if done {
		r.complete(ctx.Now(), m, at)
		return
	}
	r.forward(ctx, m, at, next)
}

func (r *replay) forward(ctx *sim.Context, m *Completion, at, next graph.NodeID) {
	m.Hops++
	m.PhysHops += r.topo.Hops(at, next)
	ctx.Send(at, next, m)
}

// complete queues m's request behind the last request sink issued.
func (r *replay) complete(now sim.Time, m *Completion, sink graph.NodeID) {
	if m.PredID != pending {
		panic(fmt.Sprintf("%s: request %d completed twice", r.proto, m.Req.ID))
	}
	m.PredID, m.At, m.Sink = r.lastReq[sink], now, sink
	r.completed++
	if r.obs != nil {
		r.obs.Complete(now, m.Req.ID, m.PredID, sink)
	}
}

// finish sums the run's totals and chains its completions into the
// queuing order.
func (r *replay) finish(set queuing.Set, makespan sim.Time) (*StaticResult, error) {
	if r.completed != len(set) {
		return nil, fmt.Errorf("%s: completed %d of %d requests", r.proto, r.completed, len(set))
	}
	res := &StaticResult{Set: set, Completions: r.finds, Makespan: makespan}
	preds := make([]int, len(set))
	for i, c := range r.finds {
		preds[i] = c.PredID
		res.TotalLatency += c.Latency()
		res.TotalHops += int64(c.Hops)
		res.MaxHops = max(res.MaxHops, c.Hops)
	}
	order, err := queuing.OrderFromPredecessors(preds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.proto, err)
	}
	res.Order = order
	return res, nil
}
