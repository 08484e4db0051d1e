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
// The two steps are written once, as Start and Forward over one link
// cell; ShardForest and TreeStepper apply them to their tables, Run (a
// static request set) and RunClosedLoop hand a TreeStepper to package
// shard's two executors, and package runtime to its per-node cells.
// Run and RunClosedLoop run on the deterministic discrete-event
// simulator (package sim) under synchronous or asynchronous delay models
// and record exactly the costs the paper analyzes: per-request latency
// (Definition 3.2), queue-message hops, the induced total order, and the
// final pointer configuration.
package arrow

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/shard"
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
	// Seed keys the random latency and arbitration draws: each hashes
	// (Seed, event seq).
	Seed int64
	// Tracer observes protocol steps; nil disables tracing.
	Tracer Tracer
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

// stepTracer renders the replay's protocol steps as Tracer events: a
// step that moves the find on flips the node's link (to itself at the
// requester, to the previous hop at a forwarder) and sends; the step
// that ends the chase at the sink only flips, and a request issued at
// the sink moves no pointer at all.
type stepTracer struct{ tr Tracer }

func (s stepTracer) Request(at sim.Time, req queuing.Request) { s.tr.OnRequest(at, req) }

func (s stepTracer) Step(at sim.Time, reqID int, node, from, next graph.NodeID, done bool) {
	switch {
	case !done:
		s.tr.OnFlip(at, node, next, from)
		s.tr.OnSend(at, node, next, reqID)
	case from != node:
		s.tr.OnFlip(at, node, node, from)
	}
}

func (s stepTracer) Complete(at sim.Time, reqID, predID int, sink graph.NodeID) {
	s.tr.OnComplete(at, reqID, predID, sink)
}

// Completion records the queuing of one request; on a tree PhysHops
// equals Hops.
type Completion = shard.Completion

// Result collects everything a protocol run produced.
type Result struct {
	// StaticResult carries the completions, arrow's queuing order πA and
	// the cost totals.
	shard.StaticResult
	// Root is the initial sink.
	Root graph.NodeID
	// FinalLinks is the link pointer of every node after quiescence.
	FinalLinks []graph.NodeID
	// FinalSink is the unique sink after quiescence.
	FinalSink graph.NodeID
}

// Run executes the arrow protocol for the request set on tree t — a
// shard.Replay of the TreeStepper the closed loop runs — and returns the
// full cost accounting. The run is deterministic for fixed Options.
func Run(t *tree.Tree, set queuing.Set, opts Options) (*Result, error) {
	step, err := NewTreeStepper(t, opts.Root)
	if err != nil {
		return nil, err
	}
	ropts := shard.ReplayOptions{Latency: opts.Latency, Arbitration: opts.Arbitration, Seed: opts.Seed}
	if opts.Tracer != nil {
		opts.Tracer.OnInit(t, opts.Root)
		ropts.Observer = stepTracer{opts.Tracer}
	}
	res, err := shard.Replay(sim.TreeTopology{T: t}, step, "arrow", set, ropts)
	if err != nil {
		return nil, err
	}
	sink, err := followLinks(t, step.link)
	if err != nil {
		return nil, err
	}
	return &Result{StaticResult: *res, Root: opts.Root, FinalLinks: step.link, FinalSink: sink}, nil
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
