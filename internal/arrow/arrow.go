// Package arrow implements the arrow distributed queuing protocol — the
// paper's primary contribution (Section 2).
//
// The protocol runs on a pre-selected spanning tree T. Every node v keeps
// a pointer link(v) to a tree neighbour (or to itself, making v the sink)
// and id(v), the identifier of the last queuing operation v issued. To
// queue operation a, node v sends queue(a) toward link(v) and points
// link(v) at itself; each node u receiving queue(a) from w performs an
// atomic path reversal: it flips link(u) to w and either forwards the
// message to the old link or — if u was the sink — completes the queuing
// of a behind id(u).
//
// The implementation runs on the deterministic discrete-event simulator
// (package sim) under synchronous or asynchronous delay models and records
// exactly the costs the paper analyzes: per-request latency (Definition
// 3.2), queue-message hops, the induced total order, and the final
// pointer configuration.
package arrow

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
)

// Options configures a protocol run.
type Options struct {
	// Root is the initial sink (tail of the empty queue). All link
	// pointers are initialized toward it.
	Root graph.NodeID
	// Latency is the message delay model; nil means the paper's
	// synchronous unit-latency model.
	Latency sim.LatencyModel
	// Arbitration orders simultaneously arriving messages.
	Arbitration sim.Arbitration
	// Seed drives random latency/arbitration.
	Seed int64
	// Tracer observes protocol steps; nil disables tracing.
	Tracer Tracer
	// MaxEvents guards against divergence; 0 derives a generous default
	// from the instance size.
	MaxEvents int64
}

// Tracer observes protocol execution; implementations must be cheap, as
// hooks fire on every step. See package trace for a renderer.
type Tracer interface {
	OnInit(t *tree.Tree, root graph.NodeID)
	OnRequest(at sim.Time, req queuing.Request)
	OnSend(at sim.Time, from, to graph.NodeID, reqID int)
	OnFlip(at sim.Time, node, oldLink, newLink graph.NodeID)
	OnComplete(at sim.Time, reqID, predID int, sink graph.NodeID)
}

// Completion records the queuing of one request.
type Completion struct {
	// Req is the completed request.
	Req queuing.Request
	// PredID is the predecessor request's ID, or -1 for the virtual root
	// request r0.
	PredID int
	// At is the completion time: when the predecessor's issuer learnt its
	// successor (Definition 3.2).
	At sim.Time
	// Sink is the node at which the queue message terminated.
	Sink graph.NodeID
	// Hops is the number of queue-message link traversals (0 when the
	// requester was itself the sink).
	Hops int
}

// Latency returns the request's queuing latency At − Time.
func (c Completion) Latency() int64 { return int64(c.At - c.Req.Time) }

// Result collects everything a protocol run produced.
type Result struct {
	// Set is the request set the run served.
	Set queuing.Set
	// Root is the initial sink.
	Root graph.NodeID
	// Completions is indexed by request ID.
	Completions []Completion
	// Order is arrow's queuing order πA (request IDs, first queued first),
	// reconstructed from the predecessor chain.
	Order queuing.Order
	// TotalLatency is Σ latencies — the paper's cost metric (Def 3.3).
	TotalLatency int64
	// TotalHops is Σ queue-message hops (= protocol messages sent).
	TotalHops int64
	// MaxHops is the largest per-request hop count (≤ D by Demmer–Herlihy).
	MaxHops int
	// Makespan is the simulated time at quiescence.
	Makespan sim.Time
	// FinalLinks is the link pointer of every node after quiescence.
	FinalLinks []graph.NodeID
	// FinalSink is the unique sink after quiescence.
	FinalSink graph.NodeID
}

// queueMsg is the protocol's only message type.
type queueMsg struct{ reqID int }

// state is the per-run protocol state, indexed by node.
type state struct {
	t    *tree.Tree
	set  queuing.Set
	opts Options

	link    []graph.NodeID
	lastReq []int // id(v): last request issued by v; -1 = never (⊥)
	hops    []int // per-request hop counter

	// msgs holds one pre-boxed queue message per request: forwarding sends
	// the same *queueMsg at every hop, so no per-send interface boxing.
	msgs []queueMsg

	completions []Completion
	completed   int
}

// Run executes the arrow protocol for the request set on tree t and
// returns the full cost accounting. The run is deterministic for fixed
// Options.
func Run(t *tree.Tree, set queuing.Set, opts Options) (*Result, error) {
	if err := set.Validate(t.NumNodes()); err != nil {
		return nil, err
	}
	if int(opts.Root) < 0 || int(opts.Root) >= t.NumNodes() {
		return nil, fmt.Errorf("arrow: root %d out of range", opts.Root)
	}
	maxEvents := opts.MaxEvents
	if maxEvents == 0 {
		// Each request travels at most n hops plus its injection timer.
		maxEvents = sim.SatMul(int64(len(set)+1), sim.SatMul(int64(t.NumNodes()+2), 4))
		if maxEvents < 4096 {
			maxEvents = 4096
		}
	}
	st := &state{
		t:           t,
		set:         set,
		opts:        opts,
		link:        initialLinks(t, opts.Root),
		lastReq:     make([]int, t.NumNodes()),
		hops:        make([]int, len(set)),
		msgs:        make([]queueMsg, len(set)),
		completions: make([]Completion, len(set)),
	}
	for i := range st.msgs {
		st.msgs[i].reqID = i
	}
	for i := range st.lastReq {
		st.lastReq[i] = -1
	}
	for i := range st.completions {
		st.completions[i].PredID = -2 // sentinel: not completed
	}
	if opts.Tracer != nil {
		opts.Tracer.OnInit(t, opts.Root)
	}

	s := sim.New(sim.Config{
		Topology:    sim.TreeTopology{T: t},
		Latency:     opts.Latency,
		Arbitration: opts.Arbitration,
		Seed:        opts.Seed,
		MaxEvents:   maxEvents,
	})
	s.SetAllHandlers(st.handleMessage)
	for _, r := range set {
		req := r
		s.ScheduleAt(req.Time, func(ctx *sim.Context) { st.initiate(ctx, req) })
	}
	makespan := s.Run()

	if st.completed != len(set) {
		return nil, fmt.Errorf("arrow: only %d of %d requests completed", st.completed, len(set))
	}
	res := &Result{
		Set:         set,
		Root:        opts.Root,
		Completions: st.completions,
		Makespan:    makespan,
		FinalLinks:  st.link,
	}
	for i := range st.completions {
		c := &st.completions[i]
		res.TotalLatency += c.Latency()
		res.TotalHops += int64(c.Hops)
		if c.Hops > res.MaxHops {
			res.MaxHops = c.Hops
		}
	}
	order, err := orderFromPredecessors(st.completions)
	if err != nil {
		return nil, err
	}
	res.Order = order
	sink, err := followLinks(t, st.link)
	if err != nil {
		return nil, err
	}
	res.FinalSink = sink
	return res, nil
}

// initialLinks points every node's link at its tree neighbour toward
// root; the root points at itself (the unique sink).
func initialLinks(t tree.Nav, root graph.NodeID) []graph.NodeID {
	links := make([]graph.NodeID, t.NumNodes())
	for v := range links {
		node := graph.NodeID(v)
		if node == root {
			links[v] = node
		} else {
			links[v] = t.NextHop(node, root)
		}
	}
	return links
}

// initiate performs the atomic initiation sequence of Section 2 at the
// requesting node.
func (st *state) initiate(ctx *sim.Context, req queuing.Request) {
	v := req.Node
	if tr := st.opts.Tracer; tr != nil {
		tr.OnRequest(ctx.Now(), req)
	}
	if st.link[v] == v {
		// v is the sink: the request finds its predecessor locally, with
		// zero messages — id(v) is the current tail (or ⊥ = virtual root).
		st.complete(ctx, req.ID, st.lastReq[v], v)
		st.lastReq[v] = req.ID
		return
	}
	target := st.link[v]
	st.lastReq[v] = req.ID
	old := st.link[v]
	st.link[v] = v
	if tr := st.opts.Tracer; tr != nil {
		tr.OnFlip(ctx.Now(), v, old, v)
		tr.OnSend(ctx.Now(), v, target, req.ID)
	}
	st.hops[req.ID]++
	ctx.Send(v, target, &st.msgs[req.ID])
}

// handleMessage performs the atomic path-reversal step at a node
// receiving queue(a).
func (st *state) handleMessage(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
	qm, ok := msg.(*queueMsg)
	if !ok {
		panic(fmt.Sprintf("arrow: unexpected message %T", msg))
	}
	next := st.link[at]
	st.link[at] = from
	if tr := st.opts.Tracer; tr != nil {
		tr.OnFlip(ctx.Now(), at, next, from)
	}
	if next != at {
		if tr := st.opts.Tracer; tr != nil {
			tr.OnSend(ctx.Now(), at, next, qm.reqID)
		}
		st.hops[qm.reqID]++
		ctx.Send(at, next, qm)
		return
	}
	// at was the sink: queue(a) found its predecessor id(at).
	st.complete(ctx, qm.reqID, st.lastReq[at], at)
}

func (st *state) complete(ctx *sim.Context, reqID, predID int, sink graph.NodeID) {
	c := &st.completions[reqID]
	if c.PredID != -2 {
		panic(fmt.Sprintf("arrow: request %d completed twice", reqID))
	}
	*c = Completion{
		Req:    st.set[reqID],
		PredID: predID,
		At:     ctx.Now(),
		Sink:   sink,
		Hops:   st.hops[reqID],
	}
	st.completed++
	if tr := st.opts.Tracer; tr != nil {
		tr.OnComplete(ctx.Now(), reqID, predID, sink)
	}
}

// orderFromPredecessors chains completions into the total order. Exactly
// one request has the virtual root (-1) as predecessor; every other
// request names a unique predecessor.
func orderFromPredecessors(cs []Completion) (queuing.Order, error) {
	succ := make(map[int]int, len(cs))
	for i, c := range cs {
		if c.PredID == -2 {
			return nil, fmt.Errorf("arrow: request %d never completed", i)
		}
		if _, dup := succ[c.PredID]; dup {
			return nil, fmt.Errorf("arrow: two successors recorded for request %d", c.PredID)
		}
		succ[c.PredID] = i
	}
	order := make(queuing.Order, 0, len(cs))
	cur, ok := succ[-1]
	for ok {
		order = append(order, cur)
		cur, ok = succ[cur]
	}
	if len(order) != len(cs) {
		return nil, fmt.Errorf("arrow: predecessor chain covers %d of %d requests", len(order), len(cs))
	}
	return order, nil
}

// followLinks verifies the pointer invariant: from every node, following
// link pointers reaches a unique sink. Returns that sink.
func followLinks(t tree.Nav, links []graph.NodeID) (graph.NodeID, error) {
	var sink graph.NodeID = -1
	for v := range links {
		cur := graph.NodeID(v)
		for steps := 0; ; steps++ {
			if steps > len(links) {
				return -1, fmt.Errorf("arrow: link cycle detected from node %d", v)
			}
			next := links[cur]
			if next == cur {
				break
			}
			cur = next
		}
		if sink == -1 {
			sink = cur
		} else if sink != cur {
			return -1, fmt.Errorf("arrow: two sinks %d and %d", sink, cur)
		}
	}
	return sink, nil
}

// VerifySinkReachability re-exposes the pointer invariant check for tests
// and examples.
func VerifySinkReachability(t tree.Nav, links []graph.NodeID) (graph.NodeID, error) {
	return followLinks(t, links)
}
