package arrow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/queuing"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// randomInstance builds a random connected graph, a BFS spanning tree,
// and a random dynamic workload from a seed.
func randomInstance(seed int64) (*tree.Tree, queuing.Set) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(40)
	g := graph.GNP(n, 0.25, seed)
	t, err := tree.BFS(g, graph.NodeID(rng.Intn(n)))
	if err != nil {
		panic(err)
	}
	set := workload.Poisson(n, 0.3+rng.Float64(), sim.Time(2*n+1), seed)
	return t, set
}

// wellQueued checks what every pointer discipline owes a static run on n
// nodes: the order is a permutation, no two requests share a
// predecessor, no find takes more than n hops, and at quiescence exactly
// one node points at itself.
func wellQueued(res *shard.StaticResult, ptrs []graph.NodeID) bool {
	if !queuing.ValidOrder(res.Order, len(res.Set)) {
		return false
	}
	preds := map[int]bool{}
	for _, c := range res.Completions {
		if preds[c.PredID] || c.Hops > len(ptrs) {
			return false
		}
		preds[c.PredID] = true
	}
	self := 0
	for v, p := range ptrs {
		if p == graph.NodeID(v) {
			self++
		}
	}
	return self == 1
}

// spendPointers reads object 0's pointer at each of the n nodes through
// StartFind, which reads only the entry it overwrites (a local find
// returns the node itself, its self pointer); the stepper is spent
// afterwards.
func spendPointers(step shard.Stepper, n int) []graph.NodeID {
	ptrs := make([]graph.NodeID, n)
	for v := range ptrs {
		ptrs[v], _ = step.StartFind(0, graph.NodeID(v))
	}
	return ptrs
}

// Property: the queuing order is always a permutation (and the run
// wellQueued), for any instance, any delay model and both pointer
// disciplines — arrow on the spanning tree, shard.Reversal (NTA) on the
// graph's metric.
func TestPropertyOrderIsPermutation(t *testing.T) {
	prop := func(seed int64) bool {
		tr, set := randomInstance(seed)
		if len(set) == 0 {
			return true
		}
		n := tr.NumNodes()
		metric := sim.NewMetricTopology(graph.GNP(n, 0.25, seed))
		for _, lat := range []sim.LatencyModel{nil, sim.AsyncUniform(3)} {
			res, err := Run(tr, set, Options{Root: tr.Root(), Latency: lat, Seed: seed})
			if err != nil || !wellQueued(&res.StaticResult, res.FinalLinks) {
				return false
			}
			rev := shard.NewReversal(n, 1, tr.Root())
			rres, err := shard.Replay(metric, rev, "reversal", set, shard.ReplayOptions{Latency: lat, Seed: seed})
			if err != nil || !wellQueued(rres, spendPointers(rev, n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: eq. (2) — arrow's total latency equals the sum of tree
// distances between consecutive origins in its own order, in the
// synchronous model.
func TestPropertyCostEqualsOrderDistance(t *testing.T) {
	prop := func(seed int64) bool {
		tr, set := randomInstance(seed)
		if len(set) == 0 {
			return true
		}
		res, err := Run(tr, set, Options{Root: tr.Root(), Seed: seed})
		if err != nil {
			return false
		}
		ca := queuing.CA(func(u, v graph.NodeID) graph.Weight { return tr.Dist(u, v) })
		return res.TotalLatency == queuing.OrderCost(set, tr.Root(), res.Order, ca)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: per-request latency equals dT(predecessor origin, origin) in
// the synchronous model (eq. (1)) — not just in total.
func TestPropertyPerRequestLatencyIsTreeDistance(t *testing.T) {
	prop := func(seed int64) bool {
		tr, set := randomInstance(seed)
		if len(set) == 0 {
			return true
		}
		res, err := Run(tr, set, Options{Root: tr.Root(), Seed: seed})
		if err != nil {
			return false
		}
		prev := queuing.RootRequest(tr.Root())
		for _, id := range res.Order {
			c := res.Completions[id]
			if c.Latency() != tr.Dist(prev.Node, set[id].Node) {
				return false
			}
			prev = set[id]
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: hops per request equal the tree hop-distance between
// consecutive origins (messages travel the direct tree path — Demmer and
// Herlihy's Lemma, used for eq. (1)).
func TestPropertyHopsAreTreePathLengths(t *testing.T) {
	prop := func(seed int64) bool {
		tr, set := randomInstance(seed)
		if len(set) == 0 {
			return true
		}
		res, err := Run(tr, set, Options{Root: tr.Root(), Seed: seed})
		if err != nil {
			return false
		}
		prev := tr.Root()
		for _, id := range res.Order {
			c := res.Completions[id]
			if c.Hops != tr.Hops(prev, set[id].Node) {
				return false
			}
			prev = set[id].Node
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the asynchronous latency of each request never exceeds the
// synchronous worst case dT (message delays are at most 1 per unit
// weight after scaling).
func TestPropertyAsyncLatencyBounded(t *testing.T) {
	prop := func(seed int64) bool {
		tr, set := randomInstance(seed)
		if len(set) == 0 {
			return true
		}
		scale := int64(4)
		scaled := make([]queuing.Request, len(set))
		for i, r := range set {
			scaled[i] = queuing.Request{Node: r.Node, Time: r.Time * scale}
		}
		sset := queuing.NewSet(scaled)
		res, err := Run(tr, sset, Options{
			Root:    tr.Root(),
			Latency: sim.AsyncUniform(scale),
			Seed:    seed,
		})
		if err != nil {
			return false
		}
		prev := tr.Root()
		for _, id := range res.Order {
			c := res.Completions[id]
			// Worst case: issued, then waited for the predecessor's
			// reversal, then travelled dT at worst-case speed. The loose
			// but always-valid bound is the makespan.
			if c.Latency() > int64(res.Makespan) {
				return false
			}
			if c.Latency() < 0 {
				return false
			}
			prev = sset[id].Node
		}
		_ = prev
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the final sink is the origin of the last request in arrow's
// order, under every arbitration policy.
func TestPropertyFinalSinkIsLastOrigin(t *testing.T) {
	prop := func(seed int64) bool {
		tr, set := randomInstance(seed)
		if len(set) == 0 {
			return true
		}
		for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
			res, err := Run(tr, set, Options{Root: tr.Root(), Arbitration: arb, Seed: seed})
			if err != nil {
				return false
			}
			if res.FinalSink != set[res.Order[len(res.Order)-1]].Node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the one-shot regime orders requests so that consecutive
// origins' distances telescope within 2x the tree weight — a smoke-level
// consequence of the NN characterization (no NN step can exceed the
// remaining span). Checked via the Lemma 3.13-style longest-edge bound:
// in the one-shot case every cT edge is a dT value <= D.
func TestPropertyOneShotEdgesWithinDiameter(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		g := graph.GNP(n, 0.3, seed)
		tr, err := tree.BFS(g, 0)
		if err != nil {
			return false
		}
		k := 1 + rng.Intn(n)
		set := workload.OneShot(n, k, seed)
		res, err := Run(tr, set, Options{Root: 0, Seed: seed})
		if err != nil {
			return false
		}
		d := tr.Diameter()
		prev := tr.Root()
		for _, id := range res.Order {
			if tr.Dist(prev, set[id].Node) > d {
				return false
			}
			prev = set[id].Node
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: closed-loop runs conserve request counts and never lose
// track of hops under any latency model.
func TestPropertyClosedLoopConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		per := 1 + rng.Intn(12)
		tr := tree.BalancedBinary(n)
		res, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: per, Latency: sim.AsyncUniform(2), Seed: seed}, Root: graph.NodeID(rng.Intn(n))})
		if err != nil {
			return false
		}
		if res.Requests != int64(n*per) {
			return false
		}
		return res.QueueHops >= 0 && res.LocalCompletions <= res.Requests
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBurstMatchesClosedLoopPerNode1 holds the two executors of the one
// protocol step against each other: every node requesting at t = 0
// through the static replay is the closed loop at PerNode 1, so under
// synchronous latency the two agree on queue hops, total latency and the
// worst hop count, whichever way simultaneous events are arbitrated.
func TestBurstMatchesClosedLoopPerNode1(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		tr, err := tree.BFS(graph.GNP(n, 0.2, seed), graph.NodeID(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		root := graph.NodeID(rng.Intn(n))
		for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO} {
			static, err := Run(tr, workload.OneShot(n, n, seed), Options{Root: root, Arbitration: arb})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, arb, err)
			}
			closed, err := RunClosedLoop(tr, LoopConfig{Spec: loop.Spec{PerNode: 1, Arbitration: arb}, Root: root})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, arb, err)
			}
			if static.TotalHops != closed.QueueHops || static.TotalLatency != closed.TotalLatency || static.MaxHops != closed.MaxQueueHops {
				t.Fatalf("seed %d n=%d root=%d %v: replay (hops %d, latency %d, max %d) != closed loop (hops %d, latency %d, max %d)",
					seed, n, root, arb, static.TotalHops, static.TotalLatency, static.MaxHops,
					closed.QueueHops, closed.TotalLatency, closed.MaxQueueHops)
			}
		}
	}
}
