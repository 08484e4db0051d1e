package centralized

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/queuing"
	"repro/internal/workload"
)

func TestSingleRemoteRequest(t *testing.T) {
	g := graph.Complete(4)
	set := queuing.NewSet([]queuing.Request{{Node: 2, Time: 0}})
	res, err := Run(g, set, Options{Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Completions[0]
	if c.PredID != -1 {
		t.Errorf("pred = %d, want -1", c.PredID)
	}
	// Unit latency to center, 1 service unit, unit latency back = 3.
	if c.Latency() != 3 {
		t.Errorf("latency = %d, want 3", c.Latency())
	}
	if c.Hops != 2 {
		t.Errorf("hops = %d, want 2 (one message each way)", c.Hops)
	}
}

func TestCenterLocalRequest(t *testing.T) {
	g := graph.Complete(4)
	set := queuing.NewSet([]queuing.Request{{Node: 0, Time: 0}})
	res, err := Run(g, set, Options{Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completions[0].Hops != 0 {
		t.Errorf("local request hops = %d, want 0", res.Completions[0].Hops)
	}
	if res.Completions[0].Latency() != 1 {
		t.Errorf("local request latency = %d, want 1 (service only)", res.Completions[0].Latency())
	}
}

func TestSerializationBottleneck(t *testing.T) {
	// n simultaneous requests: the center serves one per time unit, so
	// the last reply leaves at time >= n.
	g := graph.Complete(9)
	var reqs []queuing.Request
	for v := 1; v < 9; v++ {
		reqs = append(reqs, queuing.Request{Node: graph.NodeID(v), Time: 0})
	}
	res, err := Run(g, queuing.NewSet(reqs), Options{Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 8+2 {
		t.Errorf("makespan = %d, want >= 10 (8 service + 2 network)", res.Makespan)
	}
	// The queue order must reflect the serialization: a permutation.
	if !queuing.ValidOrder(res.Order, len(reqs)) {
		t.Error("invalid order")
	}
}

func TestOrderIsArrivalOrder(t *testing.T) {
	g := graph.Complete(6)
	set := queuing.NewSet([]queuing.Request{
		{Node: 1, Time: 0},
		{Node: 2, Time: 10},
		{Node: 3, Time: 20},
	})
	res, err := Run(g, set, Options{Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range res.Order {
		if id != i {
			t.Errorf("order[%d] = %d, want %d (well-separated = arrival order)", i, id, i)
		}
	}
}

func TestRunRejectsBadCenter(t *testing.T) {
	g := graph.Complete(3)
	if _, err := Run(g, queuing.Set{}, Options{Center: 9}); err == nil {
		t.Error("expected center range error")
	}
}

func TestClosedLoopScalesLinearly(t *testing.T) {
	// The defining property of the centralized baseline: makespan grows
	// ~linearly with node count under saturation (Figure 10's contrast).
	per := 50
	var prev int64
	for _, n := range []int{4, 8, 16, 32} {
		g := graph.Complete(n)
		res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: per}, Center: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != int64(per*n) {
			t.Fatalf("n=%d: completed %d, want %d", n, res.Requests, per*n)
		}
		// Service serialization alone forces makespan >= total requests.
		if int64(res.Makespan) < int64(per*(n-1)) {
			t.Errorf("n=%d: makespan %d too small for serialized center", n, res.Makespan)
		}
		if prev > 0 && int64(res.Makespan) < prev*3/2 {
			t.Errorf("n=%d: makespan %d did not grow ~linearly from %d", n, res.Makespan, prev)
		}
		prev = int64(res.Makespan)
	}
}

func TestClosedLoopAveragesAndValidation(t *testing.T) {
	g := graph.Complete(8)
	res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 20}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency() <= 0 {
		t.Error("avg latency should be positive")
	}
	// Both directions of the round trip, per request.
	if avg := float64(res.QueueHops+res.ReplyHops) / float64(res.Requests); avg <= 0 || avg > 2 {
		t.Errorf("avg hops = %f, want in (0,2]", avg)
	}
	if _, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 0}, Center: 0}); err == nil {
		t.Error("expected PerNode validation error")
	}
	// 2³² + 3 requests per node would run 3 if stored truncated.
	if _, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 1<<32 + 3}, Center: 0}); err == nil || !strings.Contains(err.Error(), "PerNode must be <=") {
		t.Errorf("PerNode 2^32+3: got %v, want the upper-bound error", err)
	}
}

func TestStaticRunWithDynamicWorkload(t *testing.T) {
	g := graph.Complete(16)
	set := workload.Poisson(16, 0.4, 100, 5)
	if len(set) == 0 {
		t.Skip("empty workload draw")
	}
	res, err := Run(g, set, Options{Center: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !queuing.ValidOrder(res.Order, len(set)) {
		t.Error("invalid order")
	}
	if res.TotalLatency < int64(len(set)) {
		t.Errorf("total latency %d implausibly small", res.TotalLatency)
	}
}
