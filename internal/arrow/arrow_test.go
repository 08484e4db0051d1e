package arrow

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// paperExampleTree builds the 8-node tree resembling Figures 1-5:
//
//	    x
//	   / \
//	  u   y
//	 / \   \
//	v   z   w
//
// with node IDs: x=0 u=1 y=2 v=3 z=4 w=5.
func paperExampleTree(t *testing.T) *tree.Tree {
	t.Helper()
	parent := []graph.NodeID{0, 0, 0, 1, 1, 2}
	pw := []graph.Weight{0, 1, 1, 1, 1, 1}
	tr, err := tree.FromParents(0, parent, pw)
	if err != nil {
		t.Fatalf("building example tree: %v", err)
	}
	return tr
}

func TestSingleRequestFromRoot(t *testing.T) {
	tr := paperExampleTree(t)
	set := queuing.NewSet([]queuing.Request{{Node: 0, Time: 0}})
	res, err := Run(tr, set, Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Completions[0]
	if c.PredID != -1 {
		t.Errorf("predecessor = %d, want -1 (virtual root)", c.PredID)
	}
	if c.Hops != 0 {
		t.Errorf("hops = %d, want 0 (local completion at root)", c.Hops)
	}
	if c.Latency() != 0 {
		t.Errorf("latency = %d, want 0", c.Latency())
	}
	if res.FinalSink != 0 {
		t.Errorf("final sink = %d, want 0", res.FinalSink)
	}
}

func TestSingleRemoteRequest(t *testing.T) {
	tr := paperExampleTree(t)
	// v (node 3) requests; root is x (node 0); dT(v, x) = 2.
	set := queuing.NewSet([]queuing.Request{{Node: 3, Time: 0}})
	res, err := Run(tr, set, Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Completions[0]
	if c.PredID != -1 {
		t.Errorf("predecessor = %d, want -1", c.PredID)
	}
	if c.Hops != 2 {
		t.Errorf("hops = %d, want 2", c.Hops)
	}
	if c.Latency() != 2 {
		t.Errorf("latency = %d, want 2 (dT(v, root))", c.Latency())
	}
	if c.Sink != 0 {
		t.Errorf("sink = %d, want 0", c.Sink)
	}
	if res.FinalSink != 3 {
		t.Errorf("final sink = %d, want 3 (the requester)", res.FinalSink)
	}
}

func TestSequentialLatencyEqualsTreeDistance(t *testing.T) {
	// Eq. (1): when requests are well separated, the latency of a request
	// queued after its predecessor is exactly dT between their origins.
	tr := tree.BalancedBinary(15)
	nodes := []graph.NodeID{7, 3, 12, 0, 14, 5}
	reqs := make([]queuing.Request, len(nodes))
	gap := sim.Time(3 * tr.Diameter())
	for i, v := range nodes {
		reqs[i] = queuing.Request{Node: v, Time: sim.Time(i) * gap}
	}
	set := queuing.NewSet(reqs)
	res, err := Run(tr, set, Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	prev := queuing.RootRequest(0)
	for _, id := range res.Order {
		c := res.Completions[id]
		want := tr.Dist(prev.Node, set[id].Node)
		if c.Latency() != want {
			t.Errorf("request %d: latency %d, want dT = %d", id, c.Latency(), want)
		}
		prev = set[id]
	}
	// Sequential requests are served in issue order.
	for i, id := range res.Order {
		if id != i {
			t.Errorf("order[%d] = %d, want %d (issue order)", i, id, i)
		}
	}
}

func TestConcurrentFigureSixScenario(t *testing.T) {
	// Figure 6: v is the initial tail; x and y request simultaneously.
	// Tree: path v - u - w with x, y hanging off u and w.
	//
	//   v(0) - u(1) - w(2)
	//          |      |
	//          x(3)   y(4)
	parent := []graph.NodeID{0, 0, 1, 1, 2}
	pw := []graph.Weight{0, 1, 1, 1, 1}
	tr, err := tree.FromParents(0, parent, pw)
	if err != nil {
		t.Fatal(err)
	}
	set := queuing.NewSet([]queuing.Request{
		{Node: 3, Time: 0}, // x
		{Node: 4, Time: 0}, // y
	})
	res, err := Run(tr, set, Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Both requests must queue, one behind the root, the other behind it.
	if len(res.Order) != 2 {
		t.Fatalf("order has %d entries, want 2", len(res.Order))
	}
	first := res.Completions[res.Order[0]]
	second := res.Completions[res.Order[1]]
	if first.PredID != -1 {
		t.Errorf("first request predecessor = %d, want -1", first.PredID)
	}
	if second.PredID != res.Order[0] {
		t.Errorf("second request predecessor = %d, want %d", second.PredID, res.Order[0])
	}
	if res.FinalSink != set[res.Order[1]].Node {
		t.Errorf("final sink = %d, want last queued request's node %d",
			res.FinalSink, set[res.Order[1]].Node)
	}
}

func TestTotalOrderInvariants(t *testing.T) {
	// Arrow must produce a valid total order for arbitrary concurrent
	// workloads: every request exactly once, predecessor chain intact.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(28)
		g := graph.GNP(n, 0.3, int64(trial))
		tr, err := tree.BFS(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		set := workload.Poisson(n, 0.8, sim.Time(2*n), int64(trial*13+1))
		if len(set) == 0 {
			continue
		}
		res, err := Run(tr, set, Options{Root: 0, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !queuing.ValidOrder(res.Order, len(set)) {
			t.Fatalf("trial %d: order is not a permutation", trial)
		}
		// Pointer invariant: links lead to the unique sink, which is the
		// origin of the last queued request.
		last := set[res.Order[len(res.Order)-1]]
		if res.FinalSink != last.Node {
			t.Errorf("trial %d: final sink %d != last request node %d",
				trial, res.FinalSink, last.Node)
		}
		// Hop bound: every request travels at most the tree's hop diameter
		// (a BFS tree of a unit-weight graph: its diameter counts hops).
		maxHops := int(tr.Diameter())
		for _, c := range res.Completions {
			if c.Hops > maxHops {
				t.Errorf("trial %d: request %d used %d hops > hop-diameter %d",
					trial, c.Req.ID, c.Hops, maxHops)
			}
		}
	}
}

func TestLemma39TimeSeparatedOrdering(t *testing.T) {
	// Lemma 3.9: if tj − ti > dT(vi, vj), arrow orders ri before rj.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(20)
		tr := tree.BalancedBinary(n)
		set := workload.Poisson(n, 0.5, sim.Time(3*n), int64(trial))
		if len(set) < 2 {
			continue
		}
		res, err := Run(tr, set, Options{Root: 0})
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, len(set))
		for p, id := range res.Order {
			pos[id] = p
		}
		for i := range set {
			for j := range set {
				if set[j].Time-set[i].Time > tr.Dist(set[i].Node, set[j].Node) {
					if pos[i] > pos[j] {
						t.Errorf("trial %d: r%d (t=%d) ordered after r%d (t=%d) despite gap > dT",
							trial, i, set[i].Time, j, set[j].Time)
					}
				}
			}
		}
	}
}

func TestAsynchronousRunsComplete(t *testing.T) {
	for _, model := range []sim.LatencyModel{
		sim.AsyncUniform(5),
		sim.AsyncBimodal(5, 0.2),
	} {
		tr := tree.BalancedBinary(31)
		set := workload.Bursty(31, 8, 3, 40, 3)
		res, err := Run(tr, set, Options{Root: 0, Latency: model, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", model.Name(), err)
		}
		if !queuing.ValidOrder(res.Order, len(set)) {
			t.Errorf("%s: invalid order", model.Name())
		}
	}
}

func TestArbitrationInvariance(t *testing.T) {
	// The protocol completes and produces a valid order under any local
	// arbitration of simultaneous messages.
	tr := tree.BalancedBinary(31)
	set := workload.OneShot(31, 16, 5)
	for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
		res, err := Run(tr, set, Options{Root: 0, Arbitration: arb, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", arb, err)
		}
		if !queuing.ValidOrder(res.Order, len(set)) {
			t.Errorf("%v: invalid order", arb)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := tree.BalancedBinary(31)
	set := workload.Poisson(31, 0.6, 100, 9)
	r1, err := Run(tr, set, Options{Root: 0, Latency: sim.AsyncUniform(4), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(tr, set, Options{Root: 0, Latency: sim.AsyncUniform(4), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalLatency != r2.TotalLatency || r1.Makespan != r2.Makespan {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)",
			r1.TotalLatency, r1.Makespan, r2.TotalLatency, r2.Makespan)
	}
	for i := range r1.Order {
		if r1.Order[i] != r2.Order[i] {
			t.Fatalf("orders diverge at %d", i)
		}
	}
}

func TestMultipleRequestsSameNode(t *testing.T) {
	tr := tree.BalancedBinary(7)
	set := queuing.NewSet([]queuing.Request{
		{Node: 3, Time: 0},
		{Node: 3, Time: 1}, // issued while the first is still in flight
		{Node: 5, Time: 1},
		{Node: 3, Time: 2},
	})
	res, err := Run(tr, set, Options{Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !queuing.ValidOrder(res.Order, len(set)) {
		t.Fatal("invalid order")
	}
	// The second and later requests of node 3 are queued directly behind
	// its previous request (local completion): node 3 is its own sink.
	pos := make([]int, len(set))
	for p, id := range res.Order {
		pos[id] = p
	}
	if pos[0] > pos[1] || pos[1] > pos[3] {
		t.Errorf("same-node requests reordered: positions %v", pos)
	}
}

func TestVerifySinkReachabilityRejectsCycle(t *testing.T) {
	tr := paperExampleTree(t)
	links := []graph.NodeID{1, 0, 0, 1, 1, 2} // 0 -> 1 -> 0 cycle
	if _, err := VerifySinkReachability(tr, links); err == nil {
		t.Error("expected cycle detection error")
	}
}

// TestVerifySinkReachabilityMessages pins the check's answers on the
// paper's example tree: the sink, or the error naming the first node in
// index order whose walk finds a cycle or a second sink — and the
// links unchanged afterwards.
func TestVerifySinkReachabilityMessages(t *testing.T) {
	tr := paperExampleTree(t)
	cases := []struct {
		links []graph.NodeID
		sink  graph.NodeID
		err   string
	}{
		{[]graph.NodeID{1, 0, 0, 1, 1, 2}, -1, "arrow: link cycle detected from node 0"},
		{[]graph.NodeID{0, 2, 1, 0, 0, 0}, -1, "arrow: link cycle detected from node 1"},
		{[]graph.NodeID{0, 0, 3, 4, 2, 4}, -1, "arrow: link cycle detected from node 2"},
		{[]graph.NodeID{0, 1, 0, 1, 1, 2}, -1, "arrow: two sinks 0 and 1"},
		{[]graph.NodeID{1, 1, 2, 2, 0, 3}, -1, "arrow: two sinks 1 and 2"},
		{[]graph.NodeID{4, 0, 0, 1, 1, 2}, -1, "arrow: link cycle detected from node 0"},
		{[]graph.NodeID{3, 3, 0, 3, 1, 2}, 3, ""},
		{[]graph.NodeID{1, 1, 1, 1, 1, 2}, 1, ""},
		{[]graph.NodeID{0, 0, 0, 6, 1, 2}, -1, "arrow: node 3 links to 6, outside the 6 nodes"},
	}
	for _, c := range cases {
		before := slices.Clone(c.links)
		sink, err := VerifySinkReachability(tr, c.links)
		if got := fmt.Sprint(err); c.err != "" && got != c.err || c.err == "" && err != nil {
			t.Errorf("links %v: error %q, want %q", before, got, c.err)
		}
		if sink != c.sink {
			t.Errorf("links %v: sink %d, want %d", before, sink, c.sink)
		}
		if !slices.Equal(c.links, before) {
			t.Errorf("links %v changed to %v", before, c.links)
		}
	}
}

// followLinksOracle is the check as a walk from every node to its end,
// O(n) per node: the reference followLinks must agree with.
func followLinksOracle(links []graph.NodeID) (graph.NodeID, error) {
	var sink graph.NodeID = -1
	for v := range links {
		cur := graph.NodeID(v)
		for steps := 0; ; steps++ {
			if steps > len(links) {
				return -1, fmt.Errorf("arrow: link cycle detected from node %d", v)
			}
			next := links[cur]
			if next == cur {
				break
			}
			cur = next
		}
		if sink == -1 {
			sink = cur
		} else if sink != cur {
			return -1, fmt.Errorf("arrow: two sinks %d and %d", sink, cur)
		}
	}
	return sink, nil
}

// TestVerifySinkReachabilityMatchesOracle holds the check against the
// walk-every-node oracle on random link tables: pointer forests toward
// one or more sinks with a few links redirected, so cycles, second
// sinks and legal tables all occur, found at any node.
func TestVerifySinkReachabilityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	outcomes := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		links := make([]graph.NodeID, n)
		perm := rng.Perm(n)
		for i, v := range perm {
			links[v] = graph.NodeID(v)
			if i > 0 {
				links[v] = graph.NodeID(perm[rng.Intn(i)]) // toward an earlier node: a forest
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			links[rng.Intn(n)] = graph.NodeID(rng.Intn(n))
		}
		before := slices.Clone(links)
		wantSink, wantErr := followLinksOracle(links)
		sink, err := VerifySinkReachability(nil, links)
		if sink != wantSink || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("links %v: got (%d, %v), oracle (%d, %v)", before, sink, err, wantSink, wantErr)
		}
		if !slices.Equal(links, before) {
			t.Fatalf("links %v changed to %v", before, links)
		}
		outcome := "sink"
		if err != nil {
			outcome = strings.Fields(err.Error())[1]
		}
		outcomes[outcome]++
	}
	if len(outcomes) != 3 {
		t.Errorf("random tables reached outcomes %v, want a legal table, a cycle and two sinks", outcomes)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	tr := paperExampleTree(t)
	if _, err := Run(tr, queuing.Set{{ID: 0, Node: 99, Time: 0}}, Options{Root: 0}); err == nil {
		t.Error("expected error for out-of-range node")
	}
	if _, err := Run(tr, queuing.Set{}, Options{Root: 77}); err == nil {
		t.Error("expected error for out-of-range root")
	}
}

func TestClosedLoopSmall(t *testing.T) {
	tr := tree.BalancedBinary(8)
	res, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 10}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 80 {
		t.Errorf("requests = %d, want 80", res.Requests)
	}
	if res.AvgQueueHops() < 0 || res.AvgQueueHops() > float64(tr.NumNodes()) {
		t.Errorf("avg hops = %f out of range", res.AvgQueueHops())
	}
	if res.Makespan <= 0 {
		t.Errorf("makespan = %d, want > 0", res.Makespan)
	}
}

func TestClosedLoopSingleNode(t *testing.T) {
	tr := tree.BalancedBinary(1)
	res, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 5}, Root: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 5 {
		t.Errorf("requests = %d, want 5", res.Requests)
	}
	if res.QueueHops != 0 {
		t.Errorf("queue hops = %d, want 0 (all local)", res.QueueHops)
	}
}

// plainNav exposes only tree.Nav's method set, hiding the ParentArrays
// accessor: the simulator then fills its tree link table by asking
// Parent/ParentWeight instead of borrowing the navigator's arrays.
type plainNav struct{ tree.Nav }

// TestClosedLoopLinkTableSourceBitIdentical: where the simulator's flat
// link table comes from — lent by the Walker, or filled through the Nav
// interface — changes nothing: the closed loop's result is identical
// field for field, under the latency models and link-state tiers that
// read the table's weight and slot.
func TestClosedLoopLinkTableSourceBitIdentical(t *testing.T) {
	parent := make([]graph.NodeID, 200)
	pw := make([]graph.Weight, len(parent))
	for v := 1; v < len(parent); v++ {
		parent[v] = graph.NodeID((v - 1) / 3)
		pw[v] = graph.Weight(1 + v%4)
	}
	navs := map[string]*tree.Walker{
		"unit":     tree.BinaryWalker(255),
		"weighted": tree.MustWalkerFromParents(0, parent, pw),
	}
	specs := map[string]loop.Spec{
		"sync":     {PerNode: 20, Seed: 7},
		"async-tx": {PerNode: 20, Seed: 7, Latency: sim.AsyncUniform(4), LinkTxTime: 1},
		"lifo":     {PerNode: 20, Seed: 7, Arbitration: sim.ArbLIFO, ThinkTime: 3},
	}
	for nn, w := range navs {
		for sn, spec := range specs {
			lent, err := RunClosedLoop(w, LoopConfig{Spec: spec, Root: 5})
			if err != nil {
				t.Fatal(err)
			}
			filled, err := RunClosedLoop(plainNav{w}, LoopConfig{Spec: spec, Root: 5})
			if err != nil {
				t.Fatal(err)
			}
			if *lent != *filled {
				t.Errorf("%s/%s: lent table %+v, filled table %+v", nn, sn, *lent, *filled)
			}
		}
	}
}
