package shard

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stepFuncs is a Stepper assembled from two functions, for steppers no
// protocol would ship.
type stepFuncs struct {
	start   func(v graph.NodeID) (graph.NodeID, bool)
	forward func(at, from, origin graph.NodeID) (graph.NodeID, bool)
}

func (s stepFuncs) StartFind(_ int32, v graph.NodeID) (graph.NodeID, bool) { return s.start(v) }
func (s stepFuncs) ForwardFind(_ int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	return s.forward(at, from, origin)
}

func wantErr(t *testing.T, err error, text string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), text) {
		t.Errorf("got error %v, want one containing %q", err, text)
	}
}

// TestReplayChecks reaches each guard Replay keeps on behalf of every
// static run: set validation, the duplicate-successor and completion
// count errors, the completed-twice panic and the divergence budget.
func TestReplayChecks(t *testing.T) {
	const n = 4
	topo := sim.NewCompleteTopology(n)
	burst := workload.OneShot(n, n, 1)

	rev, err := NewReversal(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(topo, rev, "p", queuing.Set{{ID: 0, Node: n}}, ReplayOptions{})
	wantErr(t, err, "out-of-range node")

	// Every node claims the tail: all of them follow the virtual root.
	allLocal := stepFuncs{start: func(v graph.NodeID) (graph.NodeID, bool) { return v, true }}
	_, err = Replay(topo, allLocal, "p", burst, ReplayOptions{})
	wantErr(t, err, "p: queuing: two successors recorded for request -1")

	r := &replay{proto: "p", lastReq: []int{-1}, finds: []Completion{{PredID: pending}, {PredID: pending}}}
	r.complete(3, &r.finds[0], 0)
	_, err = r.finish(queuing.Set{{ID: 0}, {ID: 1}}, 3)
	wantErr(t, err, "p: completed 1 of 2 requests")
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "p: request 0 completed twice") {
				t.Errorf("second completion: recovered %q, want the completed-twice panic", msg)
			}
		}()
		r.complete(4, &r.finds[0], 0)
	}()

	// A find bounced between two nodes for ever exhausts the budget.
	pingPong := stepFuncs{
		start:   func(v graph.NodeID) (graph.NodeID, bool) { return (v + 1) % n, false },
		forward: func(at, from, _ graph.NodeID) (graph.NodeID, bool) { return from, false },
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "exceeded MaxEvents") {
				t.Errorf("diverging stepper: recovered %q, want the simulator's MaxEvents panic", msg)
			}
		}()
		_, _ = Replay(topo, pingPong, "p", burst[:1], ReplayOptions{})
	}()
}

// TestReplayAllocsPerRequest: a static run allocates per request (its
// record, its injection closure), never per hop — a find is forwarded
// as the one pointer it was issued with. The NTA drivers this replaced
// boxed one message per forward.
func TestReplayAllocsPerRequest(t *testing.T) {
	const n = 256
	topo := sim.NewCompleteTopology(n)
	set := workload.Poisson(n, 2, 500, 9)
	var res *StaticResult
	allocs := testing.AllocsPerRun(5, func() {
		rev, err := NewReversal(n, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = Replay(topo, rev, "nta", set, ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	reqs := float64(len(set))
	if float64(res.TotalHops) < 3*reqs {
		t.Fatalf("test premise broken: %d hops for %d requests, want at least 3 per request", res.TotalHops, len(set))
	}
	if allocs > 2*reqs+64 {
		t.Errorf("%.0f allocations for %d requests and %d hops: want O(requests), at most 2 per request + 64", allocs, len(set), res.TotalHops)
	}
	t.Logf("%d requests, %d hops, %.0f allocations", len(set), res.TotalHops, allocs)
}
