package loop_test

// External test package: the loop driver is exercised through its real
// consumer (NTA), matching how the engine adapters drive it.

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/sim"
)

// churnPlan is a node-churn schedule over a complete graph (link churn
// is a tree-topology notion; forwarding protocols send point to point).
func churnPlan(n int, rate float64, seed int64) *sim.FaultPlan {
	return &sim.FaultPlan{Events: sim.NodeChurn(n, nil, rate, 25, 20, 600, seed)}
}

// TestForwardingLoopsSurviveNodeChurn: NTA's closed loop completes
// every request under node churn — dropped finds re-issue at heal,
// dropped replies resume the requester's loop.
func TestForwardingLoopsSurviveNodeChurn(t *testing.T) {
	const n, perNode = 24, 30
	g := graph.Complete(n)
	plan := churnPlan(n, 1.5, 7)
	run := func() *nta.LoopResult {
		res, err := nta.RunClosedLoop(g, nta.LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Root: 0})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if want := int64(n * perNode); res.Requests != want {
		t.Fatalf("completed %d of %d", res.Requests, want)
	}
	if res.Dropped == 0 {
		t.Fatal("churn plan dropped nothing; scenario vacuous")
	}
	if res.Reissued == 0 && res.RepliesLost == 0 {
		t.Fatalf("drops without any recovery activity: %+v", res)
	}
	if res.Affected == 0 || res.Affected > res.Requests {
		t.Fatalf("implausible affected count: %+v", res)
	}
	if res.RepairMessages != 0 || res.RepairEpisodes != 0 {
		t.Fatalf("forwarding protocol reported repair traffic: %+v", res)
	}
	// Determinism: an identical run returns identical counters.
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Fatal("fault run not deterministic")
	}
}

// TestForwardingLoopQueuePolicy: under FaultQueue nothing drops and no
// re-issues happen; stalled messages only mark requests affected.
func TestForwardingLoopQueuePolicy(t *testing.T) {
	const n, perNode = 16, 20
	g := graph.Complete(n)
	plan := &sim.FaultPlan{Policy: sim.FaultQueue, Events: sim.NodeChurn(n, nil, 1, 20, 15, 400, 3)}
	res, err := nta.RunClosedLoop(g, nta.LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || res.Reissued != 0 {
		t.Fatalf("queue policy lost work: %+v", res)
	}
	if res.Deferred == 0 {
		t.Fatal("plan deferred nothing; scenario vacuous")
	}
	if res.Affected == 0 {
		t.Fatal("deferred messages did not mark requests affected")
	}
}

// TestForwardingLoopEmptyPlanBitIdentical: the acceptance criterion on
// the forwarding drivers — a nil and an empty plan agree byte for byte.
func TestForwardingLoopEmptyPlanBitIdentical(t *testing.T) {
	g := graph.Complete(12)
	base, err := nta.RunClosedLoop(g, nta.LoopConfig{Spec: loop.Spec{PerNode: 25}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := nta.RunClosedLoop(g, nta.LoopConfig{Spec: loop.Spec{PerNode: 25, Faults: &sim.FaultPlan{}}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, empty) {
		t.Fatalf("empty plan diverged:\n nil:   %+v\n empty: %+v", base, empty)
	}
}

// TestForwardingLoopRejectsNonHealingPlan: permanent failures are
// refused up front.
func TestForwardingLoopRejectsNonHealingPlan(t *testing.T) {
	g := graph.Complete(6)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{{At: 3, Kind: sim.NodeDown, U: 1}}}
	if _, err := nta.RunClosedLoop(g, nta.LoopConfig{Spec: loop.Spec{PerNode: 2, Faults: plan}, Root: 0}); err == nil {
		t.Fatal("non-healing plan accepted")
	}
}
