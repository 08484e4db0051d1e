package centralized

import (
	"reflect"
	"testing"
	"unsafe"

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

// TestNodeRecordIs8Bytes pins the whole per-node state of a fault-free
// run without a recorder: remaining count and the queue link. The issue
// time is a column only a recorder allocates.
func TestNodeRecordIs8Bytes(t *testing.T) {
	if got := unsafe.Sizeof(clNode{}); got != 8 {
		t.Errorf("clNode is %d bytes, want 8", got)
	}
}

// recorderFunc adapts a function to stats.Recorder.
type recorderFunc func(latency int64, hops int)

func (f recorderFunc) RecordRequest(latency int64, hops int) { f(latency, hops) }

// runTimed runs a closed loop on the complete graph, telling completed
// the tick of each completion, and fails t unless every request
// completed.
func runTimed(t *testing.T, n int, cfg LoopConfig, completed func(now sim.Time)) LoopResult {
	t.Helper()
	var s *sim.Simulator
	cfg.Recorder = recorderFunc(func(int64, int) { completed(s.Now()) })
	st, s, err := newClosedLoop(sim.NewMetricTopology(graph.Complete(n)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if want := int64(n * cfg.PerNode); st.res.Requests != want {
		t.Fatalf("completed %d of %d", st.res.Requests, want)
	}
	return *st.res
}

// TestDeadCoordinatorServesNothing: the coordinator's queue dies with
// it. In TestClosedLoopCoordinatorFailover's outage no request completes
// from the center's failure until the replacement serves, the dead
// center sends no reply, the requests it held re-issue at the
// replacement, and the run drains deterministically.
func TestDeadCoordinatorServesNothing(t *testing.T) {
	const n, perNode = 12, 30
	const down, takeover = 20, 20 + failoverDelay
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: down, Kind: sim.NodeDown, U: 0},
		{At: 90, Kind: sim.NodeUp, U: 0},
	}}
	run := func() (LoopResult, [2]int) {
		var counts [2]int // completions before the failure, and during the outage
		res := runTimed(t, n, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan}, Center: 0}, func(now sim.Time) {
			switch {
			case now < down:
				counts[0]++
			case now <= takeover:
				counts[1]++
			}
		})
		return res, counts
	}
	res, counts := run()
	if counts[0] == 0 {
		t.Fatal("nothing completed before the failure; scenario vacuous")
	}
	if counts[1] != 0 {
		t.Errorf("%d requests completed between the failure at %d and the takeover at %d", counts[1], down, takeover)
	}
	if res.RepliesLost != 0 {
		t.Errorf("%d replies lost: the dead center answered requests", res.RepliesLost)
	}
	if res.Reissued == 0 || res.Affected == 0 {
		t.Errorf("the dead center's queue re-issued nothing: %+v", res)
	}
	again, againCounts := run()
	if res != again || counts != againCounts {
		t.Fatal("dead-coordinator run not deterministic")
	}
}

// TestStaleServeTimerDropped: the center serves one request per tick
// through outages of the center that end inside the failover window
// (the old center serves again until the takeover drops its queue) and
// after it, under every arbitration. A serve timer armed for a queue
// the center lost must not finish a request of the next queue early.
func TestStaleServeTimerDropped(t *testing.T) {
	const n, perNode = 10, 25
	for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
		for up := sim.Time(21); up <= 40; up++ {
			plan := &sim.FaultPlan{Events: []sim.FaultEvent{
				{At: 20, Kind: sim.NodeDown, U: 0},
				{At: up, Kind: sim.NodeUp, U: 0},
			}}
			last := sim.Time(-1)
			runTimed(t, n, LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan, Arbitration: arb, Seed: 3}, Center: 0}, func(now sim.Time) {
				if now <= last {
					t.Fatalf("%v, center up at %d: a request completed at %d after one at %d", arb, up, now, last)
				}
				last = now
			})
		}
	}
}

// TestRecoveryTickDeferralEnds: an issue timer the down center defers
// to its recovery tick finds it up there under every arbitration. While
// the recovery applied only when its own event popped, LIFO popped the
// deferred timer first (the recovery, pushed when the run began, has the
// lowest seq), deferred it to the same tick again, and the run spun
// until its event budget panicked; FIFO and random arbitration drain in
// under a thousand events.
func TestRecoveryTickDeferralEnds(t *testing.T) {
	const n, perNode = 10, 25
	for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
		for _, up := range []sim.Time{27, 40} {
			plan := &sim.FaultPlan{Events: []sim.FaultEvent{
				{At: 20, Kind: sim.NodeDown, U: 0},
				{At: up, Kind: sim.NodeUp, U: 0},
			}}
			res, err := RunClosedLoop(graph.Complete(n), LoopConfig{Spec: loop.Spec{PerNode: perNode, Faults: plan, Arbitration: arb}, Center: 0})
			if err != nil {
				t.Fatalf("%v, center up at %d: %v", arb, up, err)
			}
			if res.Requests != n*perNode || res.Events > 1000 {
				t.Errorf("%v, center up at %d: %d requests in %d events, want %d in under 1000", arb, up, res.Requests, res.Events, n*perNode)
			}
		}
	}
}

// TestTakeoverDropsOldCentersQueue: a center that comes back inside the
// failover window serves again until the takeover, and the requests it
// holds then are lost with its role and re-issue at the replacement.
// With a think time of 7, requests of nodes answered just before the
// failure reach the recovered center just before the takeover.
func TestTakeoverDropsOldCentersQueue(t *testing.T) {
	const n, perNode = 10, 25
	const takeover = 20 + failoverDelay
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		{At: 20, Kind: sim.NodeDown, U: 0},
		{At: 22, Kind: sim.NodeUp, U: 0},
	}}
	st, s, err := newClosedLoop(sim.NewMetricTopology(graph.Complete(n)),
		LoopConfig{Spec: loop.Spec{PerNode: perNode, ThinkTime: 7, Faults: plan}, Center: 0})
	if err != nil {
		t.Fatal(err)
	}
	var held []graph.NodeID
	// Scheduled before the run, this timer precedes the failover timer at
	// the takeover tick; the one it arms follows it.
	s.ScheduleAt(takeover, func(ctx *sim.Context) {
		for v := st.head; v != none; v = st.nodes[v].next {
			held = append(held, v)
		}
		ctx.After(0, func(*sim.Context) {
			if st.center == 0 || st.head != none {
				t.Errorf("after the takeover: center %d, queue head %d", st.center, st.head)
			}
			for _, v := range held {
				if !st.lost[v] || !st.affected[v] {
					t.Errorf("request of node %d held at the old center is not lost", v)
				}
			}
		})
	})
	s.Run()
	if len(held) == 0 {
		t.Fatal("the old center held no request at the takeover; scenario vacuous")
	}
	if want := int64(n * perNode); st.res.Requests != want {
		t.Fatalf("completed %d of %d", st.res.Requests, want)
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
