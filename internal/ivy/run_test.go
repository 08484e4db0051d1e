package ivy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunMatchesDirectoryOnSequentialWorkloads: with requests spaced so
// no two finds are concurrently in flight, the sim-backed run must visit
// exactly the chains the atomic Directory replay produces.
func TestRunMatchesDirectoryOnSequentialWorkloads(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		g := graph.Complete(n)
		reqs := make([]queuing.Request, 40)
		for i := range reqs {
			// Complete graph: any chain costs < n, so spacing by 2n
			// serializes the finds.
			reqs[i] = queuing.Request{Node: graph.NodeID(rng.Intn(n)), Time: sim.Time(i * 2 * n)}
		}
		set := queuing.NewSet(reqs)
		res, err := Run(g, set, Options{Root: 0})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := NewDirectory(n, 0)
		for i, r := range set {
			want := ref.Find(r.Node)
			if got := res.Completions[i].Hops; got != want {
				t.Fatalf("seed %d request %d: sim chain %d, directory chain %d", seed, i, got, want)
			}
		}
		// The final pointer state agrees too, the owner (the one node
		// naming itself) included.
		for v := 0; v < n; v++ {
			if got, want := res.FinalOwners[v], ref.ProbableOwner(graph.NodeID(v)); got != want {
				t.Fatalf("seed %d: pointer of %d = %d, want %d", seed, v, got, want)
			}
		}
		if own := ref.Owner(); res.FinalOwners[own] != own {
			t.Fatalf("seed %d: owner %d names %d, not itself", seed, own, res.FinalOwners[own])
		}
		// Sequential finds queue in issue order.
		for i, id := range res.Order {
			if id != i {
				t.Fatalf("seed %d: sequential order broken: %v", seed, res.Order)
			}
		}
	}
}

// TestRunConcurrentTotalOrder: under concurrency the predecessor chain
// must still be a total order and every request must complete.
func TestRunConcurrentTotalOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 6 + int(seed)%20
		g := graph.Complete(n)
		set := workload.OneShot(n, n/2+1, seed)
		res, err := Run(g, set, Options{Root: 0, Arbitration: sim.ArbRandom, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !queuing.ValidOrder(res.Order, len(set)) {
			t.Fatalf("seed %d: invalid order %v", seed, res.Order)
		}
	}
}

// TestRunAmortizedAccountingPreserved: the sim-backed run's chain
// lengths stay inside the amortized bound Ginat et al. prove, Θ(log n).
func TestRunAmortizedAccountingPreserved(t *testing.T) {
	n := 128
	g := graph.Complete(n)
	set := workload.Poisson(n, 2.0, 2000, 5)
	if len(set) < 100 {
		t.Fatalf("workload too small: %d", len(set))
	}
	res, err := Run(g, set, Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Completions); got != len(set) {
		t.Errorf("run served %d of %d", got, len(set))
	}
	if am, bound := float64(res.TotalHops)/float64(len(set)), 3*math.Log2(float64(n)); am > bound {
		t.Errorf("amortized chain %.2f exceeds 3 log2 n = %.2f", am, bound)
	}
}

func TestRunClosedLoopCompletesAll(t *testing.T) {
	for _, n := range []int{1, 2, 9, 24} {
		g := graph.Complete(n)
		res, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 8}, Root: 0})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Requests != int64(8*n) {
			t.Errorf("n=%d: completed %d of %d", n, res.Requests, 8*n)
		}
		if want := res.Requests - res.LocalCompletions; res.ReplyHops != want {
			t.Errorf("n=%d: reply hops = %d, want remote completions %d", n, res.ReplyHops, want)
		}
	}
}

func TestRunClosedLoopAmortizedChains(t *testing.T) {
	// Closed-loop uniform demand keeps amortized chains logarithmic.
	n := 64
	res, err := RunClosedLoop(graph.Complete(n), LoopConfig{Spec: loop.Spec{PerNode: 40}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if avg, bound := res.AvgQueueHops(), 3*math.Log2(float64(n)); avg > bound {
		t.Errorf("avg chain %.2f exceeds 3 log2 n = %.2f", avg, bound)
	}
}

func TestRunClosedLoopDeterministic(t *testing.T) {
	cfg := LoopConfig{Spec: loop.Spec{PerNode: 12, ThinkTime: 2, Latency: sim.AsyncUniform(6), Arbitration: sim.ArbRandom, Seed: 123}, Root: 1}
	g := graph.Complete(12)
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

func TestRunRejectsBadInputs(t *testing.T) {
	g := graph.Complete(4)
	if _, err := Run(g, queuing.NewSet([]queuing.Request{{Node: 9}}), Options{Root: 0}); err == nil {
		t.Error("expected error for out-of-range request node")
	}
	if _, err := Run(g, workload.OneShot(4, 2, 1), Options{Root: 7}); err == nil {
		t.Error("expected error for out-of-range root")
	}
	if _, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 0}, Root: 0}); err == nil {
		t.Error("expected error for PerNode = 0")
	}
	if _, err := RunClosedLoop(g, LoopConfig{Spec: loop.Spec{PerNode: 1}, Root: 5}); err == nil {
		t.Error("expected error for out-of-range root")
	}
}
