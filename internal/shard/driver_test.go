package shard

import (
	"math"
	"math/bits"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/tree"
)

// TestEventBudgetSaturates is the regression test for the divergence
// guard's int64 overflow: total * (4n+8) wraps at large n × PerNode
// (e.g. 2^31 total requests over 2^31 nodes), which either disabled the
// guard (negative product) or panicked a healthy run (small positive
// wrap). The budget must saturate instead.
func TestEventBudgetSaturates(t *testing.T) {
	if got := eventBudget(100, 10); got != 100*48+1024 {
		t.Errorf("small budget = %d, want %d", got, 100*48+1024)
	}
	huge := []struct {
		total int64
		n     int
	}{
		{math.MaxInt64 / 2, 1 << 20},
		{int64(1) << 40, math.MaxInt32},
		{math.MaxInt64, math.MaxInt32},
	}
	for _, c := range huge {
		got := eventBudget(c.total, c.n)
		if got != math.MaxInt64 {
			t.Errorf("eventBudget(%d, %d) = %d, want saturation at MaxInt64", c.total, c.n, got)
		}
		if got <= 0 {
			t.Errorf("eventBudget(%d, %d) = %d: wrapped to non-positive, guard disabled", c.total, c.n, got)
		}
	}
}

// chainStepper is a minimal pointer discipline for driver-level tests:
// every request chases to node 0.
type chainStepper struct{}

func (s chainStepper) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	if v == 0 {
		return v, true
	}
	return 0, false
}

func (s chainStepper) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	return origin, true
}

// TestRunCompletesWithNodeTimers smoke-tests the closure-free driver
// end to end: every request completes and the counters balance.
func TestRunCompletesWithNodeTimers(t *testing.T) {
	res, err := Run(sim.NewMetricTopology(graph.Complete(7)), chainStepper{}, "test",
		Spec{Spec: loop.Spec{PerNode: 5, ThinkTime: 2}, Objects: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg.Requests != 35 {
		t.Errorf("completed %d requests, want 35", res.Agg.Requests)
	}
	if res.Agg.Events <= res.Agg.Requests {
		t.Errorf("events = %d, want > requests (each request costs several events)", res.Agg.Events)
	}
	if res.Agg.LocalCompletions != 5 {
		t.Errorf("local completions = %d, want 5 (node 0's own requests)", res.Agg.LocalCompletions)
	}
}

// TestRecoveryTickDeferralEnds: node 0, where every find ends, is down
// from tick 20; its own issue timers, and under FaultQueue the finds sent
// to it, are deferred to its recovery tick, where they must find it up
// under every arbitration. While the recovery applied only when its own
// event popped, LIFO popped each deferred event before it, deferred it
// to the same tick again, and the run spun until its event budget
// panicked.
func TestRecoveryTickDeferralEnds(t *testing.T) {
	const n, perNode = 10, 25
	for _, policy := range []sim.FaultPolicy{sim.FaultDrop, sim.FaultQueue} {
		for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
			for _, up := range []sim.Time{27, 40} {
				plan := &sim.FaultPlan{Policy: policy, Events: []sim.FaultEvent{
					{At: 20, Kind: sim.NodeDown, U: 0},
					{At: up, Kind: sim.NodeUp, U: 0},
				}}
				res, err := Run(sim.NewMetricTopology(graph.Complete(n)), chainStepper{}, "test",
					Spec{Spec: loop.Spec{PerNode: perNode, Faults: plan, Arbitration: arb, Seed: 3}, Objects: 1})
				if err != nil {
					t.Fatalf("%v %v, node 0 up at %d: %v", policy, arb, up, err)
				}
				if res.Agg.Affected == 0 || res.Agg.Events > 1000 {
					t.Errorf("%v %v, node 0 up at %d: %d affected requests in %d events, want some in under 1000",
						policy, arb, up, res.Agg.Affected, res.Agg.Events)
				}
			}
		}
	}
}

// heapStepper is the deepest chase a heap-numbered binary tree allows:
// every find climbs parent by parent to node 0, and the reply is routed
// back down hop by hop. Pure arithmetic, no pointer state, so what a run
// costs is the driver and the simulator under it.
type heapStepper struct{}

func (heapStepper) StartFind(obj int32, v graph.NodeID) (graph.NodeID, bool) {
	return (v - 1) / 2, v == 0
}

func (heapStepper) ForwardFind(obj int32, at, from, origin graph.NodeID) (graph.NodeID, bool) {
	return (at - 1) / 2, at == 0
}

// ReplyHop returns origin's ancestor one level below at.
func (heapStepper) ReplyHop(at, origin graph.NodeID) graph.NodeID {
	level := func(v graph.NodeID) int { return bits.Len32(uint32(v+1)) - 1 }
	return (origin+1)>>(level(origin)-level(at)-1) - 1
}

// BenchmarkShardHandle isolates the driver's message handler at the
// headline cell's size: one request per node on a 100 001-node walker
// tree, ~15 find forwards and ~15 reply forwards per request, so 94 % of
// the 3 M events of an iteration are Handle forwarding a find (read
// origin and obj, bump hops) or a reply (read origin and obj, charge the
// object's reply hop) — either one line of the origin's nodeState.
// ns/event is the signal; the allocations are the per-run setup.
func BenchmarkShardHandle(b *testing.B) {
	const n = 100001
	topo := sim.TreeTopology{T: tree.BinaryWalker(n)}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := Run(topo, heapStepper{}, "bench", Spec{Spec: loop.Spec{PerNode: 1}, Objects: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Agg.QueueHops != res.Agg.ReplyHops || res.Agg.MaxQueueHops != 16 {
			b.Fatalf("chase shape changed: %d queue hops, %d reply hops, max %d", res.Agg.QueueHops, res.Agg.ReplyHops, res.Agg.MaxQueueHops)
		}
		events += res.Agg.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// TestNodeStateSize pins the per-node hot record at 16 bytes, four to a
// cache line and never straddling one, and the per-object counters at
// five int64 sums and an int, 48 bytes where int is 64 bits (44 where it
// is 32): the reply rides the find's record, and only a recorder keeps
// an issue time, in a column of its own.
func TestNodeStateSize(t *testing.T) {
	if got := unsafe.Sizeof(nodeState{}); got != 16 {
		t.Errorf("nodeState is %d bytes, want 16", got)
	}
	if got, want := unsafe.Sizeof(Counters{}), 5*8+unsafe.Sizeof(int(0)); got != want {
		t.Errorf("Counters is %d bytes, want %d", got, want)
	}
}
