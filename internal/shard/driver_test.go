package shard

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/sim"
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
