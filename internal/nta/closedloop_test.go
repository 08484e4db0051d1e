package nta

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/sim"
)

func TestClosedLoopCompletesAll(t *testing.T) {
	for _, n := range []int{1, 2, 7, 24} {
		g := graph.Complete(n)
		res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 10}, Root: 0})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Requests != int64(10*n) {
			t.Errorf("n=%d: completed %d of %d", n, res.Requests, 10*n)
		}
		if res.N != n {
			t.Errorf("n=%d: N = %d", n, res.N)
		}
		if res.Makespan <= 0 {
			t.Errorf("n=%d: makespan = %d", n, res.Makespan)
		}
		if res.QueueHops+res.LocalCompletions == 0 {
			t.Errorf("n=%d: no queue traffic and no local completions", n)
		}
	}
}

func TestClosedLoopSingleNodeAllLocal(t *testing.T) {
	res, err := RunClosedLoop(graph.Complete(1), LoopConfig{Spec: loop.Spec{PerNode: 25}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalCompletions != 25 || res.QueueHops != 0 || res.ReplyHops != 0 {
		t.Errorf("single node run not all-local: %+v", res)
	}
}

func TestClosedLoopReplyAccounting(t *testing.T) {
	// Every remote completion triggers exactly one reply message;
	// local completions trigger none.
	res, err := RunClosedLoop(graph.Complete(8), LoopConfig{Spec: loop.Spec{PerNode: 12}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Requests - res.LocalCompletions; res.ReplyHops != want {
		t.Errorf("reply hops = %d, want remote completions %d", res.ReplyHops, want)
	}
	if res.MaxQueueHops < 1 || res.MaxQueueHops >= res.N {
		t.Errorf("max queue hops = %d out of expected range [1,%d)", res.MaxQueueHops, res.N)
	}
}

func TestClosedLoopDeterministic(t *testing.T) {
	cfg := LoopConfig{Spec: loop.Spec{PerNode: 15, ThinkTime: 3, Latency: sim.AsyncUniform(5), Arbitration: sim.ArbRandom, Seed: 99}, Root: 2}
	g := graph.Complete(16)
	a, err := RunClosedLoop(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunClosedLoop(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("same config diverged:\n a: %+v\n b: %+v", a, b)
	}
}

func TestClosedLoopRejectsBadConfig(t *testing.T) {
	g := graph.Complete(4)
	if _, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 0}, Root: 0}); err == nil {
		t.Error("expected error for PerNode = 0")
	}
	if _, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 1}, Root: 9}); err == nil {
		t.Error("expected error for out-of-range root")
	}
}

func TestClosedLoopPointerCollapseKeepsHopsLow(t *testing.T) {
	// Under uniform closed-loop demand pointer chains collapse toward
	// recent requesters: average hops stays far below the n worst case.
	res, err := RunClosedLoop(graph.Complete(32), LoopConfig{Spec: loop.Spec{PerNode: 50}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if avg := float64(res.QueueHops) / float64(res.Requests); avg >= float64(res.N)/2 {
		t.Errorf("avg queue hops %.2f did not collapse (n=%d)", avg, res.N)
	}
}
