package centralized

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/sim"
)

// TestClosedLoopCoordinatorFailover: the center dies under load; after
// the deterministic failover window the smallest live node takes over,
// requests caught at the dead coordinator re-issue there, and every
// request completes.
func TestClosedLoopCoordinatorFailover(t *testing.T) {
	const n, perNode = 12, 30
	g := graph.Complete(n)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: 20, Kind: sim.NodeDown, U: 0},
		{At: 90, Kind: sim.NodeUp, U: 0},
	}}
	res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * perNode); res.Requests != want {
		t.Fatalf("completed %d of %d", res.Requests, want)
	}
	if res.Dropped == 0 {
		t.Fatal("coordinator outage dropped nothing; scenario vacuous")
	}
	if res.Reissued == 0 {
		t.Fatalf("no request re-issued across the failover: %+v", res)
	}
	if res.Affected == 0 {
		t.Fatalf("failover touched no requests: %+v", res)
	}
	// Determinism.
	again, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("failover run not deterministic")
	}
}

// TestClosedLoopNonCenterChurn: failures of ordinary nodes pause their
// own loops (timers defer) and lose some replies, but the center keeps
// serving and the run drains.
func TestClosedLoopNonCenterChurn(t *testing.T) {
	const n, perNode = 16, 25
	g := graph.Complete(n)
	keep := func(v graph.NodeID) bool { return v != 0 }
	plan := &sim.FaultPlan{Events: sim.NodeChurn(n, keep, 1.5, 25, 20, 500, 11)}
	res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * perNode); res.Requests != want {
		t.Fatalf("completed %d of %d", res.Requests, want)
	}
}

// TestClosedLoopEmptyFaultPlanBitIdentical: the acceptance criterion on
// the centralized driver.
func TestClosedLoopEmptyFaultPlanBitIdentical(t *testing.T) {
	g := graph.Complete(10)
	base, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 20}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 20, Faults: &sim.FaultPlan{}}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, empty) {
		t.Fatalf("empty plan diverged:\n nil:   %+v\n empty: %+v", base, empty)
	}
}

// TestFailoverReelectsWhenReplacementDiesAtTakeover pins the boundary
// case where the elected replacement dies at the exact failover
// instant: fault transitions at time T apply before the failover timer
// at T, so the takeover must re-check liveness and elect again instead
// of installing a dead coordinator.
func TestFailoverReelectsWhenReplacementDiesAtTakeover(t *testing.T) {
	const n, perNode = 8, 15
	g := graph.Complete(n)
	// Center 0 dies at t=10; after the failover window of 8 the takeover
	// fires at t=18 — the exact instant replacement node 1 dies.
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: 10, Kind: sim.NodeDown, U: 0},
		{At: 18, Kind: sim.NodeDown, U: 1},
		{At: 60, Kind: sim.NodeUp, U: 1},
		{At: 80, Kind: sim.NodeUp, U: 0},
	}}
	res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n * perNode); res.Requests != want {
		t.Fatalf("completed %d of %d", res.Requests, want)
	}
	if res.Reissued == 0 {
		t.Fatalf("no re-issues across the double failure: %+v", res)
	}
}
