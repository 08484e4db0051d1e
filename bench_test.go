// Package repro's root benchmark harness: what measures a layer's
// wall-clock cost — micro-benchmarks of the hot paths (send/dispatch,
// histogram record, tree distance, the exact and NN solvers) and whole
// closed-loop cells up to a million nodes. Simulated quantities
// (makespan, hops/op, ratios) are not reported here: they are
// deterministic, so tests and the golden documents under
// internal/analysis/testdata and internal/shard/testdata pin them.
package repro

import (
	"fmt"
	gort "runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// BenchmarkNNHeuristic measures the Theorem 3.18 machinery: NN path
// construction cost over cT instances.
func BenchmarkNNHeuristic(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := tree.BalancedBinary(n)
			set := workload.Poisson(n, 0.5, sim.Time(4*n), 1)
			ct := opt.CostAdapter(set, 0, queuing.CT(opt.DistOfTree(tr)))
			pts := len(set) + 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tsp.NearestNeighborPath(pts, ct)
			}
		})
	}
}

// BenchmarkHeldKarp measures the exact optimal solver used as ground
// truth (exponential; sizes kept small).
func BenchmarkHeldKarp(b *testing.B) {
	for _, n := range []int{8, 12, 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tr := tree.BalancedBinary(31)
			set := workload.OneShot(31, n, 3)
			co := opt.CostAdapter(set, 0, queuing.CO(opt.DistOfTree(tr)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tsp.OptimalPath(n+1, co); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArrowProtocolStep measures raw protocol throughput: simulated
// queue operations per second on a saturated tree.
func BenchmarkArrowProtocolStep(b *testing.B) {
	for _, n := range []int{15, 63, 255, 1023} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := tree.BalancedBinary(n)
			perNode := 16
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: loop.Spec{PerNode: perNode}, Root: 0}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*perNode)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkBaselines compares the engine's three queuing protocols end to
// end on an identical workload, each through its engine adapter.
func BenchmarkBaselines(b *testing.B) {
	const n = 48
	inst := engine.Instance{
		Graph:    graph.Complete(n),
		Tree:     tree.BalancedBinary(n),
		Root:     0,
		Workload: engine.NewStatic(workload.Poisson(n, 1.0, 200, 1)).MustBuild(),
	}
	for _, p := range []engine.Protocol{engine.Arrow{}, engine.NTA{}, engine.Centralized{}} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselinesClosedLoop compares the three protocols under the
// paper's closed-loop regime (the workload the headline figures plot) —
// now that every adapter supports it. Reported hops/op is Figure 11's
// metric per protocol.
func BenchmarkBaselinesClosedLoop(b *testing.B) {
	const n, perNode = 48, 200
	inst := engine.Instance{
		Graph:    graph.Complete(n),
		Tree:     tree.BalancedBinary(n),
		Root:     0,
		Workload: engine.NewClosedLoop(perNode).MustBuild(),
	}
	for _, p := range []engine.Protocol{engine.Arrow{}, engine.NTA{}, engine.Centralized{}} {
		b.Run(p.Name(), func(b *testing.B) {
			var hops float64
			for i := 0; i < b.N; i++ {
				cost, err := p.Run(inst)
				if err != nil {
					b.Fatal(err)
				}
				hops = cost.AvgQueueHops()
			}
			b.ReportMetric(hops, "hops/op")
		})
	}
}

// BenchmarkSweepSP2 measures the parallel experiment runner on the
// Figure 10/11 grid: the same cells at workers=1 (sequential) and
// workers=GOMAXPROCS. The speedup is the engine.Sweep acceptance metric;
// results are identical at every worker count (see engine's tests).
func BenchmarkSweepSP2(b *testing.B) {
	ns := []int{2, 4, 8, 16, 24, 32, 48, 64}
	const perNode = 400
	workerCounts := []int{1}
	if p := gort.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells, err := analysis.BaselinesClosedLoopGrid(ns, perNode, 1, engine.Arrow{}, engine.Centralized{})
				if err != nil {
					b.Fatal(err)
				}
				outs := engine.Sweep(cells, w)
				if err := engine.FirstError(outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sendDispatchCase is one topology of the send/dispatch measurement:
// every sender sends to its peer, and each delivery is sent straight
// back. The star case pins the O(1) tree-edge lookup: half the sends
// originate at the degree-n center, where a neighbor-list scan would
// cost O(n) per message. The walker case is the headline scale cell's
// shape — 100 001 nodes, 50 001 messages in flight, so the event arena
// and the tree link table no longer sit in cache the way the 1 023-node
// cases' do. random and async are the walker under random arbitration —
// every tick's bucket is sorted by hashed priority — and under
// AsyncUniform(4), whose seq-keyed delays go through the latency model
// and the FIFO clamp. linktx is the walker with LinkTxTime 1, so every
// send reserves its link's dense clock slot. complete sends between
// distinct nodes of a 1 024-node CompleteTopology, as NTA and the
// centralized home do, with LinkTxTime 1: its n² links, like every n²
// link space, are clocked in the senders' outboxes and the expiring
// table. metric is the materialized complete metric at paper scale,
// whose Latency and Hops read the graph's all-pairs matrix; metric-async
// is the same under AsyncUniform(4), so the FIFO clamp's expiring clock
// is live as well.
type sendDispatchCase struct {
	name    string
	topo    sim.Topology
	senders []graph.NodeID
	peer    func(graph.NodeID) graph.NodeID
	arb     sim.Arbitration
	lat     sim.LatencyModel
	txTime  sim.Time
}

func sendDispatchCases() []sendDispatchCase {
	nodeRange := func(lo, hi int) []graph.NodeID {
		nodes := make([]graph.NodeID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		return nodes
	}
	onTree := func(name string, t tree.Nav, leaves []graph.NodeID) sendDispatchCase {
		return sendDispatchCase{name: name, topo: sim.TreeTopology{T: t}, senders: leaves, peer: t.Parent}
	}
	// across pairs node v of the lower half with v+n/2.
	across := func(n int) func(graph.NodeID) graph.NodeID {
		return func(v graph.NodeID) graph.NodeID { return v + graph.NodeID(n/2) }
	}
	walker := onTree("walker", tree.BinaryWalker(100001), nodeRange(50000, 100001))
	random, async, linktx := walker, walker, walker
	random.name, random.arb = "random", sim.ArbRandom
	async.name, async.lat = "async", sim.AsyncUniform(4)
	linktx.name, linktx.txTime = "linktx", 1
	metric := sim.NewMetricTopology(graph.Complete(64))
	return []sendDispatchCase{
		onTree("binary", tree.BalancedBinary(1023), nodeRange(511, 1023)),
		onTree("star", tree.StarTree(1024), nodeRange(512, 1024)),
		walker, random, async, linktx,
		{name: "complete", topo: sim.NewCompleteTopology(1024), senders: nodeRange(0, 512), peer: across(1024), txTime: 1},
		{name: "metric", topo: metric, senders: nodeRange(0, 32), peer: across(64)},
		{name: "metric-async", topo: metric, senders: nodeRange(0, 32), peer: across(64), lat: sim.AsyncUniform(4)},
	}
}

// pingPong builds the case's simulator and returns the measured body:
// every sender sends to its peer, the messages bounce across the
// sender-peer links until `sends` of them have been re-sent, and the
// queue drains. It may be called repeatedly on the one simulator.
func (c sendDispatchCase) pingPong() func(sends int) {
	s := sim.New(sim.Config{Topology: c.topo, Arbitration: c.arb, Latency: c.lat, LinkTxTime: c.txTime, Seed: 1})
	remaining := 0
	s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
		if remaining > 0 {
			remaining--
			ctx.Send(at, from, msg)
		}
	})
	s.Reserve(len(c.senders))
	kick := func(ctx *sim.Context) {
		for _, v := range c.senders {
			ctx.Send(v, c.peer(v), sim.Message(nil))
		}
	}
	return func(sends int) {
		remaining = sends
		s.ScheduleAt(s.Now(), kick)
		s.Run()
	}
}

// BenchmarkSimSendDispatch measures the simulator's send/dispatch hot
// path: the in-place event arena and dense per-link state make a
// steady-state message send allocation-free, which
// TestSimSendDispatchZeroAlloc asserts on this same body.
func BenchmarkSimSendDispatch(b *testing.B) {
	for _, c := range sendDispatchCases() {
		b.Run(c.name, func(b *testing.B) {
			run := c.pingPong()
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}

// TestSimSendDispatchZeroAlloc is the zero-alloc send invariant as a
// test: after one warm-up pass (AllocsPerRun's own first call, which
// grows the arena, the ring and any link table to their steady size),
// 200 000 sends and the dispatches they cause allocate nothing at all —
// not "0 allocs/op" rounded down over b.N, zero. The malloc counter is process-wide and
// the body's own count is deterministic, so a runtime background
// allocation (seen under -race) can only add to a reading: the smallest
// of three readings is the body's.
func TestSimSendDispatchZeroAlloc(t *testing.T) {
	for _, c := range sendDispatchCases() {
		run := c.pingPong()
		reading := func() float64 { return testing.AllocsPerRun(1, func() { run(200_000) }) }
		allocs := reading()
		for i := 0; i < 2 && allocs != 0; i++ {
			allocs = min(allocs, reading())
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations over 200000 steady-state sends, want 0", c.name, allocs)
		}
	}
}

// BenchmarkHistogramRecord measures the streaming histogram's record
// hot path — run with -benchmem: once the bucket array has grown to the
// largest value, records are allocation-free, which is what lets every
// closed-loop completion feed it. wide records every value up to
// 0xFFFFF, nearly all of them past the exact buckets; small records only
// the values below 32, each of which has an exact bucket of its own.
func BenchmarkHistogramRecord(b *testing.B) {
	for _, c := range []struct {
		name string
		mask int64
	}{{"wide", 0xFFFFF}, {"small", 31}} {
		b.Run(c.name, func(b *testing.B) {
			var h stats.Histogram
			h.Record(c.mask) // grow the bucket array to the largest value up front
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Record(int64(i) & c.mask)
			}
		})
	}
}

// BenchmarkClosedLoopObserved measures the per-request observability
// overhead on the arrow closed loop: no recorder (the allocation-free
// baseline) vs a DistRecorder capturing full latency/hop distributions.
func BenchmarkClosedLoopObserved(b *testing.B) {
	t := tree.BalancedBinary(63)
	const perNode = 16
	cases := []struct {
		name string
		rec  stats.Recorder
	}{
		{"none", nil},
		{"dist", stats.NewDistRecorder()},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: loop.Spec{PerNode: perNode, Recorder: c.rec}, Root: 0}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(63*perNode)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkClosedLoopScale10k is the 10k-node scale cell the ladder
// scheduler targets: a closed-loop arrow run on a 10001-node balanced
// binary tree, roughly 10k events pending at every instant — two orders
// of magnitude beyond the paper's 76 processors. Reported events/s is
// raw simulator throughput at that pending-set size (where the old
// heap's O(log pending) per operation was most expensive); run with
// -benchmem to confirm the per-run allocation count stays flat (setup
// only) at this scale.
func BenchmarkClosedLoopScale10k(b *testing.B) {
	const n, perNode = 10001, 4
	t := tree.BalancedBinary(n)
	b.ReportAllocs()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: loop.Spec{PerNode: perNode}, Root: 0})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// benchArrowScale runs one closed-loop arrow cell on an implicit binary
// tree (tree.BinaryWalker — no LCA tables, no per-node closures).
func benchArrowScale(b *testing.B, n int, spec loop.Spec) {
	t := tree.BinaryWalker(n)
	b.ReportAllocs()
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: spec, Root: 0})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkClosedLoopScale100k is the 100k-node scale cell, an order of
// magnitude past BenchmarkClosedLoopScale10k. Its centralized
// sub-benchmark runs a makespan of ~4·10⁵ ticks, far past the 512-tick
// ring: the coordinator serves one request per tick from a queue kept
// in its driver, with one serve timer a tick ahead, so only pushes that
// cross into the next epoch leave the ring. far_pushes/req (0.007;
// 1.004 while every request parked its own serve-finish timer up to n
// ticks ahead) and heap_pushes are the scheduler's own deterministic
// counts. The
// arrow-scaled8 and arrow-async4 cells are the arrow cell under Section
// 3.8's delay models: every hop 8 ticks, and a uniform draw from 1..4
// per message — the send path of ROADMAP item 12(b).
func BenchmarkClosedLoopScale100k(b *testing.B) {
	b.Run("arrow", func(b *testing.B) { benchArrowScale(b, 100_001, loop.Spec{PerNode: 2}) })
	b.Run("arrow-scaled8", func(b *testing.B) {
		benchArrowScale(b, 100_001, loop.Spec{PerNode: 2, Latency: sim.SynchronousScaled(8)})
	})
	b.Run("arrow-async4", func(b *testing.B) {
		benchArrowScale(b, 100_001, loop.Spec{PerNode: 2, Latency: sim.AsyncUniform(4)})
	})
	b.Run("centralized", func(b *testing.B) {
		const n, perNode = 100_000, 4
		b.ReportAllocs()
		var events int64
		var ds sim.DrainStats
		for i := 0; i < b.N; i++ {
			res, err := centralized.RunClosedLoopTopo(sim.NewCompleteTopology(n),
				centralized.LoopConfig{Spec: loop.Spec{PerNode: perNode, DrainStats: &ds}})
			if err != nil {
				b.Fatal(err)
			}
			events = res.Events
		}
		b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(float64(ds.Sched.FarPushes)/float64(n*perNode), "far_pushes/req")
		b.ReportMetric(float64(ds.Sched.HeapPushes), "heap_pushes")
	})
}

// BenchmarkClosedLoopScale1M is the million-node tier — the scale
// DESIGN.md targets. Skipped under -short; CI's bench smoke runs it once.
func BenchmarkClosedLoopScale1M(b *testing.B) {
	if testing.Short() {
		b.Skip("million-node cell: skipped under -short")
	}
	benchArrowScale(b, 1_000_001, loop.Spec{PerNode: 2})
}

// BenchmarkTreeDistance measures the dT query, a parent walk of
// O(depth), the analysis hot path.
func BenchmarkTreeDistance(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := tree.BalancedBinary(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := graph.NodeID(i % n)
				v := graph.NodeID((i * 7) % n)
				t.Dist(u, v)
			}
		})
	}
}

// BenchmarkSimulatorEventLoop measures raw simulator throughput
// (events/second) with a two-node message ping-pong.
func BenchmarkSimulatorEventLoop(b *testing.B) {
	t := tree.PathTree(2)
	s := sim.New(sim.Config{Topology: sim.TreeTopology{T: t}})
	hops := 0
	s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
		hops++
		if hops < b.N {
			ctx.Send(at, from, msg)
		}
	})
	s.ScheduleAt(0, func(ctx *sim.Context) { ctx.Send(0, 1, struct{}{}) })
	b.ResetTimer()
	s.Run()
}

// BenchmarkRuntimeVsSim is the DESIGN.md ablation: one request set —
// 128 requests at nodes r mod 31, all at time 0 — executed on the
// deterministic simulator and on the goroutine runtime (wall-clock
// execution engines compared, not protocol cost). ns/req is one run of
// the whole set, start to quiescence, per request.
func BenchmarkRuntimeVsSim(b *testing.B) {
	const n, requests = 31, 128
	t := tree.BalancedBinary(n)
	reqs := make([]queuing.Request, requests)
	for r := range reqs {
		reqs[r].Node = graph.NodeID(r % n)
	}
	set := queuing.NewSet(reqs)
	perRequest := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set)), "ns/req")
	}
	b.Run("sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := arrow.Run(t, set, arrow.Options{Root: 0}); err != nil {
				b.Fatal(err)
			}
		}
		perRequest(b)
	})
	b.Run("goroutines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net := runtime.New(t, 0, runtime.Options{})
			net.Start()
			done := make(chan struct{})
			go func() {
				for range net.Completions() {
				}
				close(done)
			}()
			for _, r := range set {
				if _, err := net.Submit(r.Node, 0); err != nil {
					b.Fatal(err)
				}
			}
			net.Stop()
			<-done
		}
		perRequest(b)
	})
}

// BenchmarkShardClosedLoop measures the multi-object shard driver — the
// hot issue/forward path shared by the protocol steppers — with k arrow
// or NTA instances contending on one capacity-1 complete network. The
// reported ops/s is completed requests over wall clock; run with
// -benchmem to watch the driver's flat per-run allocation profile. The
// n = 1024, k = 1024 case builds a full-size pointer table each run:
// 256 KiB of 2-bit arrow codes or 1.25 MiB of 10-bit NTA pointers, the
// latter most of its B/op.
func BenchmarkShardClosedLoop(b *testing.B) {
	steppers := []struct {
		name string
		make func(n, k int) (shard.Stepper, error)
	}{
		{"arrow", func(n, k int) (shard.Stepper, error) { return arrow.NewShardForest(n, k) }},
		{"nta", func(n, k int) (shard.Stepper, error) { return nta.NewShardReversal(n, k) }},
	}
	for _, c := range []struct{ n, k, perNode int }{{32, 16, 16}, {32, 256, 16}, {1024, 1024, 5}} {
		for _, st := range steppers {
			b.Run(fmt.Sprintf("%s/n=%d/k=%d", st.name, c.n, c.k), func(b *testing.B) {
				topo := sim.NewCompleteTopology(c.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step, err := st.make(c.n, c.k)
					if err != nil {
						b.Fatal(err)
					}
					res, err := shard.Run(topo, step, st.name, shard.Spec{
						Spec:    loop.Spec{PerNode: c.perNode, Seed: 1, LinkTxTime: 1},
						Objects: c.k,
						Skew:    1.1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if want := c.n * c.perNode; res.Agg.Requests != int64(want) {
						b.Fatalf("completed %d requests, want %d", res.Agg.Requests, want)
					}
				}
				b.ReportMetric(float64(c.n*c.perNode)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
			})
		}
	}
}
