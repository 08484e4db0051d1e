package opt

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestComputeExactSmallInstance(t *testing.T) {
	g := graph.Path(5)
	// Two simultaneous requests at the two ends; root in the middle.
	set := queuing.NewSet([]queuing.Request{
		{Node: 0, Time: 0},
		{Node: 4, Time: 0},
	})
	b := Compute(g, 2, set)
	if !b.Exact {
		t.Fatal("tiny instance should be exact")
	}
	// Optimal: root(2) -> 0 (cost 2) -> 4 (cost 4) or symmetric = 6.
	if b.Lower != 6 {
		t.Errorf("exact optimal = %d, want 6", b.Lower)
	}
	if !queuing.ValidOrder(b.ExactOrder, 2) {
		t.Errorf("exact order invalid: %v", b.ExactOrder)
	}
	if b.Upper < b.Lower {
		t.Errorf("upper %d below lower %d", b.Upper, b.Lower)
	}
	if b.Best() != b.Lower {
		t.Errorf("exact Best() = %d, want Lower = %d", b.Best(), b.Lower)
	}
}

func TestComputeTimeDominatedCost(t *testing.T) {
	g := graph.Path(3)
	// Request at t=10 ordered after one at t=0: ordering backwards in
	// time is expensive (cO = ti - tj), forcing time order.
	set := queuing.NewSet([]queuing.Request{
		{Node: 1, Time: 0},
		{Node: 2, Time: 50},
	})
	b := Compute(g, 0, set)
	if !b.Exact {
		t.Fatal("should be exact")
	}
	// Time order: root->1 (d=1), 1->2 (d=1) = 2. Reverse would cost
	// max(2, 0) + max(1, 50-0)=50+... so optimal is 2.
	if b.Lower != 2 {
		t.Errorf("optimal = %d, want 2", b.Lower)
	}
	if got := b.ExactOrder[0]; got != 0 {
		t.Errorf("optimal order starts with request %d, want 0", got)
	}
}

func TestComputeInexactReportsUpperOnly(t *testing.T) {
	g := graph.Complete(30)
	set := workload.OneShot(30, 25, 3) // too many requests for exact
	b := Compute(g, 0, set)
	if b.Exact {
		t.Fatal("25 requests should not be exact")
	}
	if b.Lower != 0 {
		t.Errorf("inexact Lower = %d, want 0: nothing below costOpt is certified", b.Lower)
	}
	if b.Upper <= 0 || b.Best() != b.Upper {
		t.Errorf("inexact Best() = %d, Upper = %d, want Best() == Upper > 0", b.Best(), b.Upper)
	}
}

// randomSmallGraph returns a random weighted tree or cycle (weights
// 1..9) on n nodes, a cycle only from n = 3 on.
func randomSmallGraph(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	if n >= 3 && rng.Intn(2) == 0 {
		for i := 0; i < n; i++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), graph.Weight(1+rng.Intn(9)))
		}
		return g
	}
	for i := 1; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), graph.Weight(1+rng.Intn(9)))
	}
	return g
}

// timeOrderCase is one case of the time-order property: a request set at
// a constant gap on a graph, queued from root.
type timeOrderCase struct {
	g    *graph.Graph
	root graph.NodeID
	set  queuing.Set
}

// timeOrderExcess returns c_O(time order) − costOpt for the case.
func (c timeOrderCase) timeOrderExcess(t *testing.T) int64 {
	t.Helper()
	dg := DistOfGraph(c.g)
	b := Compute(c.g, c.root, c.set)
	if !b.Exact {
		t.Fatalf("%d requests should be exact", len(c.set))
	}
	timeOrder := make(queuing.Order, len(c.set))
	for i := range timeOrder {
		timeOrder[i] = i
	}
	return queuing.OrderCost(c.set, c.root, timeOrder, queuing.CO(dg)) - b.Lower
}

// randomTimeOrderCase draws a weighted tree or cycle of 2–15 nodes, a
// random root and 1–9 requests at the gap mul·D_G + add.
func randomTimeOrderCase(rng *rand.Rand, mul, add int64) timeOrderCase {
	n := 2 + rng.Intn(14)
	g := randomSmallGraph(n, rng)
	var d graph.Weight
	for _, row := range g.AllPairs() {
		for _, w := range row {
			d = max(d, w)
		}
	}
	set := workload.Sequential(n, 1+rng.Intn(9), sim.Time(mul*d+add), rng.Int63())
	return timeOrderCase{g: g, root: graph.NodeID(rng.Intn(n)), set: set}
}

// TestTimeOrderOptimalFromGap3D checks where the sequential experiment's
// premise holds: with requests at a constant gap of at least 3·D_G, time
// order is an optimal queuing order under c_O, so its cost is
// Compute's Held–Karp optimum. At 2·D_G + 1 it is not: gap > 2D makes
// arrow sequential, but Opt can still gain by taking a request out of
// time order (TestTimeOrderBeatenAtGap2DPlus1 pins one such set).
func TestTimeOrderOptimalFromGap3D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		c := randomTimeOrderCase(rng, 3, 0)
		if ex := c.timeOrderExcess(t); ex != 0 {
			t.Fatalf("gap 3D: time order costs %d above the optimum on root %d, set %v, edges %v",
				ex, c.root, c.set, c.g.EdgeList())
		}
	}
	beaten := 0
	for i := 0; i < 3000; i++ {
		if randomTimeOrderCase(rng, 2, 1).timeOrderExcess(t) > 0 {
			beaten++
		}
	}
	if beaten == 0 {
		t.Error("gap 2D+1: time order was optimal on all 3000 sets; the 3D threshold is untested")
	}
}

// TestTimeOrderBeatenAtGap2DPlus1 pins the smallest set the generator
// finds at gap 2·D_G + 1: one edge of weight 4 (D = 4, gap 9), root 0,
// requests at v1, v0, v1. Time order pays 4 + 4 + 4 = 12; Opt serves
// the root's own request r1 first for 0, then r0 for max(4, 9) = 9 and
// r2 for max(0, 0 − 18) = 0, 9 in all.
func TestTimeOrderBeatenAtGap2DPlus1(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 4)
	at := func(gap sim.Time) timeOrderCase {
		set := queuing.NewSet([]queuing.Request{
			{Node: 1, Time: 0}, {Node: 0, Time: gap}, {Node: 1, Time: 2 * gap},
		})
		return timeOrderCase{g: g, root: 0, set: set}
	}
	if ex := at(9).timeOrderExcess(t); ex != 3 {
		t.Errorf("gap 9: time order exceeds the optimum by %d, want 3 (12 against 9)", ex)
	}
	if ex := at(12).timeOrderExcess(t); ex != 0 {
		t.Errorf("gap 3D = 12: time order exceeds the optimum by %d, want 0", ex)
	}
}

func TestCostAdapterMapsRootAndRequests(t *testing.T) {
	tr := tree.PathTree(6)
	set := queuing.NewSet([]queuing.Request{
		{Node: 3, Time: 2},
		{Node: 5, Time: 4},
	})
	c := CostAdapter(set, 0, queuing.CA(DistOfTree(tr)))
	if got := c(0, 1); got != 3 {
		t.Errorf("root->req0 = %d, want dT(0,3)=3", got)
	}
	if got := c(1, 2); got != 2 {
		t.Errorf("req0->req1 = %d, want dT(3,5)=2", got)
	}
}

func TestDistFuncsAgreeOnTreeGraphs(t *testing.T) {
	tr := tree.BalancedBinary(15)
	g := tr.ToGraph()
	dg := DistOfGraph(g)
	dt := DistOfTree(tr)
	for u := 0; u < 15; u++ {
		for v := 0; v < 15; v++ {
			if dg(graph.NodeID(u), graph.NodeID(v)) != dt(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("dG != dT at (%d,%d) on a tree graph", u, v)
			}
		}
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(10, 5); r != 2 {
		t.Errorf("Ratio(10,5) = %f", r)
	}
	if r := Ratio(10, 0); r != 0 {
		t.Errorf("Ratio by zero = %f, want 0", r)
	}
}

func TestEmptySet(t *testing.T) {
	g := graph.Path(4)
	b := Compute(g, 0, queuing.Set{})
	if !b.Exact || b.Lower != 0 || b.Upper != 0 {
		t.Errorf("empty set bounds = %+v", b)
	}
}
