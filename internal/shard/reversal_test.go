package shard_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ivy"
	"repro/internal/loop"
	"repro/internal/queuing"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestReversalMatchesDirectory holds the one path-reversal stepper
// against Li–Hudak's sequential model: with requests spaced so no two
// finds are in flight together, Replay over Reversal must visit exactly
// the chains ivy.Directory's atomic FindChain produces, and leave the
// same pointers.
func TestReversalMatchesDirectory(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		reqs := make([]queuing.Request, 40)
		for i := range reqs {
			// Complete graph: any chain costs < n, so spacing by 2n
			// serializes the finds.
			reqs[i] = queuing.Request{Node: graph.NodeID(rng.Intn(n)), Time: sim.Time(i * 2 * n)}
		}
		set := queuing.NewSet(reqs)
		step, err := shard.NewReversal(n, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := shard.Replay(sim.NewMetricTopology(graph.Complete(n)), step, "reversal", set, shard.ReplayOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := ivy.NewDirectory(n, 0)
		for i, r := range set {
			if got, want := res.Completions[i].Hops, len(ref.FindChain(r.Node))-1; got != want {
				t.Fatalf("seed %d request %d: replayed chain %d, directory chain %d", seed, i, got, want)
			}
		}
		// The final pointer state agrees too, the owner (the one node
		// naming itself) included.
		ptrs := spendPointers(step, n)
		for v := 0; v < n; v++ {
			if got, want := ptrs[v], ref.ProbableOwner(graph.NodeID(v)); got != want {
				t.Fatalf("seed %d: pointer of %d = %d, want %d", seed, v, got, want)
			}
		}
		if own := ref.Owner(); ptrs[own] != own {
			t.Fatalf("seed %d: owner %d names %d, not itself", seed, own, ptrs[own])
		}
		// Sequential finds queue in issue order.
		for i, id := range res.Order {
			if id != i {
				t.Fatalf("seed %d: sequential order broken: %v", seed, res.Order)
			}
		}
	}
}

// spendPointers reads object 0's pointer at each of the n nodes through
// StartFind, which reads only the entry it overwrites, so every read
// sees the state the run left; the stepper is spent afterwards.
func spendPointers(step shard.Stepper, n int) []graph.NodeID {
	ptrs := make([]graph.NodeID, n)
	for v := range ptrs {
		ptrs[v], _ = step.StartFind(0, graph.NodeID(v))
	}
	return ptrs
}

// TestReversalAmortizedChainBound: Reversal's chains stay inside the
// amortized bound Ginat, Sleator and Tarjan prove for Li–Hudak's
// directory, Θ(log n) — here at most 3·log₂ n — for a static Poisson set.
func TestReversalAmortizedChainBound(t *testing.T) {
	const n = 128
	set := workload.Poisson(n, 2.0, 2000, 5)
	if len(set) < 100 {
		t.Fatalf("workload too small: %d", len(set))
	}
	step, err := shard.NewReversal(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.Replay(sim.NewMetricTopology(graph.Complete(n)), step, "reversal", set, shard.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Completions); got != len(set) {
		t.Errorf("replay served %d of %d", got, len(set))
	}
	if am, bound := float64(res.TotalHops)/float64(len(set)), 3*math.Log2(n); am > bound {
		t.Errorf("amortized chain %.2f exceeds 3 log2 n = %.2f", am, bound)
	}
}

// TestReversalClosedLoopAmortizedChains: closed-loop uniform demand keeps
// Reversal's amortized chains within the same 3·log₂ n.
func TestReversalClosedLoopAmortizedChains(t *testing.T) {
	const n = 64
	step, err := shard.NewReversal(n, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := shard.Run(sim.NewCompleteTopology(n), step, "reversal",
		shard.Spec{Spec: loop.Spec{PerNode: 40}, Objects: 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg, bound := float64(out.Agg.QueueHops)/float64(out.Agg.Requests), 3*math.Log2(n); avg > bound {
		t.Errorf("amortized chain %.2f exceeds 3 log2 n = %.2f", avg, bound)
	}
}
