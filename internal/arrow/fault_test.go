package arrow

import (
	"reflect"
	"testing"

	"repro/internal/loop"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/tree"
)

// faultLoop runs a closed loop under the given plan and sanity-checks
// the shared invariants: every request completes, the final pointer
// state is legal, and the counters are internally consistent.
func faultLoop(t *testing.T, tr *tree.Tree, plan *sim.FaultPlan, perNode int) *LoopResult {
	t.Helper()
	res, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(perNode) * int64(tr.NumNodes()); res.Requests != want {
		t.Fatalf("completed %d of %d requests", res.Requests, want)
	}
	if res.Affected > res.Requests {
		t.Fatalf("affected %d exceeds requests %d", res.Affected, res.Requests)
	}
	if res.Reissued > 0 && res.RepairEpisodes == 0 {
		t.Fatalf("requests re-issued without a repair episode: %+v", res)
	}
	return res
}

// TestClosedLoopSurvivesLinkChurn is the arrow tentpole end to end: tree
// links fail and heal under load, dropped queue messages corrupt the
// pointer state, the embedded message-driven repair restores it, and
// every lost request re-issues and completes.
func TestClosedLoopSurvivesLinkChurn(t *testing.T) {
	tr := tree.BalancedBinary(31)
	plan := &sim.FaultPlan{Events: sim.LinkChurn(sim.TreeLinks(tr), 2, 30, 20, 800, 5)}
	res := faultLoop(t, tr, plan, 40)
	if res.Dropped == 0 {
		t.Fatal("churn plan dropped nothing; the scenario is vacuous")
	}
	if res.Reissued == 0 || res.RepairEpisodes == 0 || res.RepairMessages == 0 {
		t.Fatalf("no recovery activity despite drops: %+v", res)
	}
	if res.RepairTime <= 0 {
		t.Fatalf("repair consumed no simulated time: %+v", res)
	}
	if res.Affected == 0 {
		t.Fatalf("drops recorded but no request marked affected: %+v", res)
	}
}

// TestClosedLoopSurvivesNodeChurn: node failures (timers deferred,
// deliveries dropped) recover the same way.
func TestClosedLoopSurvivesNodeChurn(t *testing.T) {
	tr := tree.BalancedBinary(24)
	plan := &sim.FaultPlan{Events: sim.NodeChurn(24, nil, 1.5, 25, 30, 700, 9)}
	res := faultLoop(t, tr, plan, 30)
	if res.Dropped == 0 {
		t.Skip("plan dropped nothing at this seed; covered by link churn")
	}
}

// TestClosedLoopQueuePolicyLosesNothing: under FaultQueue messages stall
// instead of dropping — no corruption, no repair, everything completes.
func TestClosedLoopQueuePolicyLosesNothing(t *testing.T) {
	tr := tree.BalancedBinary(15)
	plan := &sim.FaultPlan{
		Policy: sim.FaultQueue,
		Events: sim.LinkChurn(sim.TreeLinks(tr), 2, 20, 10, 400, 3),
	}
	res := faultLoop(t, tr, plan, 25)
	if res.Dropped != 0 {
		t.Fatalf("queue policy dropped %d messages", res.Dropped)
	}
	if res.RepairEpisodes != 0 || res.Reissued != 0 {
		t.Fatalf("queue policy triggered recovery machinery: %+v", res)
	}
	if res.Deferred == 0 {
		t.Fatal("plan deferred nothing; the scenario is vacuous")
	}
	if res.Affected == 0 {
		t.Fatal("deferred messages did not mark requests affected")
	}
}

// TestClosedLoopFaultRunsDeterministic: the full fault/repair cycle is
// reproducible — two identical runs return identical results.
func TestClosedLoopFaultRunsDeterministic(t *testing.T) {
	tr := tree.BalancedBinary(31)
	plan := &sim.FaultPlan{Events: sim.LinkChurn(sim.TreeLinks(tr), 2, 30, 20, 800, 5)}
	a := faultLoop(t, tr, plan, 40)
	b := faultLoop(t, tr, plan, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestClosedLoopEmptyPlanBitIdentical: a nil plan and an empty plan
// produce byte-identical results — the acceptance criterion protecting
// the pinned perf document (perf_golden.json).
func TestClosedLoopEmptyPlanBitIdentical(t *testing.T) {
	tr := tree.BalancedBinary(31)
	base, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 50}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 50, Faults: &sim.FaultPlan{}}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, empty) {
		t.Fatalf("empty plan diverged from nil plan:\n nil:   %+v\n empty: %+v", base, empty)
	}
}

// TestClosedLoopRejectsNonHealingPlan: a permanent failure leaves
// requests unservable; the driver refuses the plan up front.
func TestClosedLoopRejectsNonHealingPlan(t *testing.T) {
	tr := tree.PathTree(4)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{{At: 5, Kind: sim.NodeDown, U: 2}}}
	if _, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 3, Faults: plan}, Root: 0}); err == nil {
		t.Fatal("non-healing plan accepted")
	}
}

// TestClosedLoopScriptedOutage pins the episode structure on a scripted
// single-link outage: tracing observers see the fault transitions and a
// repair run, in order.
func TestClosedLoopScriptedOutage(t *testing.T) {
	tr := tree.PathTree(6)
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: 7, Kind: sim.LinkDown, U: 2, V: 3},
		{At: 40, Kind: sim.LinkUp, U: 2, V: 3},
	}}
	var faults []sim.FaultEvent
	var repairs []stabilize.RepairEvent
	res, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 10, Faults: plan}, Root: 0, FaultObserver: func(ev sim.FaultEvent) { faults = append(faults, ev) }, RepairObserver: func(ev stabilize.RepairEvent) { repairs = append(repairs, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 || faults[0].Kind != sim.LinkDown || faults[1].Kind != sim.LinkUp {
		t.Fatalf("fault observer saw %v", faults)
	}
	if res.Dropped > 0 {
		if len(repairs) == 0 {
			t.Fatal("drops occurred but no repair events observed")
		}
		last := repairs[len(repairs)-1]
		if last.Kind != stabilize.RepDone {
			t.Fatalf("repair log does not end in convergence: %v", last.Kind)
		}
	}
	if want := int64(60); res.Requests != want {
		t.Fatalf("completed %d of %d", res.Requests, want)
	}
}
