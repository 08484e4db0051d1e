// Package repro's root benchmark harness: one benchmark per paper
// artifact (Figure 10, Figure 11, the Theorem 4.1 lower-bound instance,
// the Theorem 3.19 ratio sweep, the Theorem 3.18 NN approximation) plus
// micro-benchmarks of the hot protocol paths and ablation benches for the
// design choices listed in DESIGN.md. Reported custom metrics carry the
// paper's units (hops/op, ratio, makespan).
package repro

import (
	"fmt"
	"math/rand"
	gort "runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ivy"
	"repro/internal/loop"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/stats"
	"repro/internal/tree"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// BenchmarkFig10Arrow measures the closed-loop arrow makespan per node
// count — the arrow curve of Figure 10. The reported "makespan" metric is
// the figure's y-axis (simulated time units).
func BenchmarkFig10Arrow(b *testing.B) {
	for _, n := range []int{2, 8, 16, 32, 64, 76} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := tree.BalancedBinary(n)
			var makespan sim.Time
			for i := 0; i < b.N; i++ {
				res, err := arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: loop.Spec{PerNode: 500}, Root: 0})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(float64(makespan), "makespan")
		})
	}
}

// BenchmarkFig10Centralized measures the centralized curve of Figure 10;
// its makespan grows linearly with n, unlike arrow's.
func BenchmarkFig10Centralized(b *testing.B) {
	for _, n := range []int{2, 8, 16, 32, 64, 76} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Complete(n)
			var makespan sim.Time
			for i := 0; i < b.N; i++ {
				res, err := centralized.RunClosedLoop(g, centralized.LoopConfig{Spec: loop.Spec{PerNode: 500}, Center: 0})
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(float64(makespan), "makespan")
		})
	}
}

// BenchmarkFig11Hops reports arrow's average interprocessor messages per
// queuing operation — Figure 11's metric.
func BenchmarkFig11Hops(b *testing.B) {
	for _, n := range []int{2, 8, 16, 32, 64, 76} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := tree.BalancedBinary(n)
			var hops float64
			for i := 0; i < b.N; i++ {
				res, err := arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: loop.Spec{PerNode: 500}, Root: 0})
				if err != nil {
					b.Fatal(err)
				}
				hops = res.AvgQueueHops()
			}
			b.ReportMetric(hops, "hops/op")
		})
	}
}

// BenchmarkLowerBound runs the Theorem 4.1 instance per diameter and
// reports the measured arrow/opt ratio.
func BenchmarkLowerBound(b *testing.B) {
	for _, logD := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("D=%d", 1<<logD), func(b *testing.B) {
			inst := workload.LowerBound(logD, workload.DefaultK(1<<logD))
			t := tree.PathTree(inst.D + 1)
			g := graph.Path(inst.D + 1)
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := arrow.Run(t, inst.Set, arrow.Options{Root: inst.Root})
				if err != nil {
					b.Fatal(err)
				}
				bounds := opt.Compute(g, inst.Root, inst.Set, opt.DistOfGraph(g))
				ratio = opt.Ratio(res.TotalLatency, bounds.Upper)
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkRatioSweep measures the Theorem 3.19 competitive ratio on the
// standard configuration set (exact optimal denominators).
func BenchmarkRatioSweep(b *testing.B) {
	cfgs := analysis.DefaultRatioConfigs(1)
	for _, cfg := range cfgs {
		b.Run(cfg.Name+"/"+cfg.WorkName, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				row, err := analysis.MeasureRatio(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ratio = row.Ratio
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

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

// BenchmarkTreeChoice is the DESIGN.md ablation: same workload, different
// spanning trees.
func BenchmarkTreeChoice(b *testing.B) {
	g := graph.Complete(64)
	set := workload.Poisson(64, 0.5, 200, 9)
	for _, kind := range []analysis.TreeKind{
		analysis.TreeBalancedBinary, analysis.TreeMST, analysis.TreeStar, analysis.TreePath,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			t, err := analysis.BuildTree(kind, g)
			if err != nil {
				b.Fatal(err)
			}
			var cost int64
			for i := 0; i < b.N; i++ {
				res, err := arrow.Run(t, set, arrow.Options{Root: t.Root()})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.TotalLatency
			}
			b.ReportMetric(float64(cost), "latency")
		})
	}
}

// BenchmarkArbitration is the DESIGN.md ablation over simultaneous-
// message processing order.
func BenchmarkArbitration(b *testing.B) {
	t := tree.BalancedBinary(127)
	set := workload.OneShot(127, 64, 5)
	for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
		b.Run(arb.String(), func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				res, err := arrow.Run(t, set, arrow.Options{Root: 0, Arbitration: arb, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.TotalLatency
			}
			b.ReportMetric(float64(cost), "latency")
		})
	}
}

// BenchmarkAsyncModels compares delay models (Section 3.8 ablation).
func BenchmarkAsyncModels(b *testing.B) {
	t := tree.BalancedBinary(63)
	set := workload.Bursty(63, 16, 3, 64, 3)
	models := []sim.LatencyModel{
		sim.SynchronousScaled(8),
		sim.AsyncUniform(8),
		sim.AsyncBimodal(8, 0.1),
	}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				res, err := arrow.Run(t, set, arrow.Options{Root: 0, Latency: m, Seed: 11})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.TotalLatency
			}
			b.ReportMetric(float64(cost)/8, "norm-latency")
		})
	}
}

// BenchmarkBaselines compares the engine's four queuing protocols end to
// end on an identical workload, each through its engine adapter.
func BenchmarkBaselines(b *testing.B) {
	const n = 48
	inst := engine.Instance{
		Graph:    graph.Complete(n),
		Tree:     tree.BalancedBinary(n),
		Root:     0,
		Workload: engine.NewStatic(workload.Poisson(n, 1.0, 200, 1)).MustBuild(),
	}
	for _, p := range []engine.Protocol{
		engine.Arrow{}, engine.NTA{}, engine.Centralized{}, engine.Ivy{},
	} {
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselinesClosedLoop compares the four protocols under the
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
	for _, p := range []engine.Protocol{
		engine.Arrow{}, engine.NTA{}, engine.Centralized{}, engine.Ivy{},
	} {
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
				outs := engine.Sweep(analysis.SP2Grid(ns, perNode, 1), w)
				if err := engine.FirstError(outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimSendDispatch measures the simulator's send/dispatch hot
// path — run with -benchmem: the value-typed event heap and dense
// per-link FIFO state make a steady-state message send allocation-free.
// The star case pins the O(1) tree-edge lookup: half the sends originate
// at the degree-n center, where a neighbor-list scan would cost O(n) per
// message. The walker case is the headline scale cell's shape — 100 001
// nodes, 50 001 messages in flight, so the event arena and the tree link
// table no longer sit in cache the way the 1 023-node cases' do.
func BenchmarkSimSendDispatch(b *testing.B) {
	leafRange := func(lo, hi int) []graph.NodeID {
		leaves := make([]graph.NodeID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			leaves = append(leaves, graph.NodeID(v))
		}
		return leaves
	}
	cases := []struct {
		name   string
		t      tree.Nav
		leaves []graph.NodeID
	}{
		{"binary", tree.BalancedBinary(1023), leafRange(511, 1023)},
		{"star", tree.StarTree(1024), leafRange(512, 1024)},
		{"walker", tree.BinaryWalker(100001), leafRange(50000, 100001)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			s := sim.New(sim.Config{Topology: sim.TreeTopology{T: c.t}})
			remaining := b.N
			s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
				if remaining > 0 {
					remaining--
					ctx.Send(at, from, msg) // ping-pong across the leaf-parent link
				}
			})
			tr := c.t
			leaves := c.leaves
			s.Reserve(len(leaves))
			s.ScheduleAt(0, func(ctx *sim.Context) {
				for _, v := range leaves {
					ctx.Send(v, tr.Parent(v), sim.Message(nil))
				}
			})
			b.ResetTimer()
			s.Run()
		})
	}
}

// BenchmarkHistogramRecord measures the streaming histogram's record
// hot path — run with -benchmem: after the one-time bucket allocation,
// records are allocation-free, which is what lets every closed-loop
// completion feed it.
func BenchmarkHistogramRecord(b *testing.B) {
	var h stats.Histogram
	h.Record(0) // allocate the fixed bucket array up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) & 0xFFFFF)
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
// sub-benchmark is the far-tier counterpart of the arrow cells: the
// coordinator serves one request per tick, so every request parks a
// serve-finish timer ~10⁵ ticks ahead — far wheel pushes, cascades and
// pours, where the arrow cells stay on the ring. far_pushes/req and
// heap_pushes are the scheduler's own deterministic counts.
func BenchmarkClosedLoopScale100k(b *testing.B) {
	b.Run("arrow", func(b *testing.B) { benchArrowScale(b, 100_001, loop.Spec{PerNode: 2}) })
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
		b.ReportMetric(float64(ds.Sched.Far())/float64(n*perNode), "far_pushes/req")
		b.ReportMetric(float64(ds.Sched.HeapPushes), "heap_pushes")
	})
}

// BenchmarkClosedLoopScale1M is the million-node tier — the scale
// DESIGN.md targets. Skipped under -short: CI's quick bench smoke
// passes -short, the dedicated bench job runs it for real.
func BenchmarkClosedLoopScale1M(b *testing.B) {
	if testing.Short() {
		b.Skip("million-node cell: skipped under -short")
	}
	benchArrowScale(b, 1_000_001, loop.Spec{PerNode: 2})
}

// BenchmarkTreeDistance measures the LCA-based dT query, the analysis
// hot path.
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

// BenchmarkDirectories compares the arrow directory against the
// home-based directory on grids (the E11 experiment).
func BenchmarkDirectories(b *testing.B) {
	for _, side := range []int{3, 5, 8} {
		n := side * side
		g := graph.Grid(side, side)
		center, _ := g.Center()
		t, err := tree.BFS(g, center)
		if err != nil {
			b.Fatal(err)
		}
		cfg := directory.Config{PerNode: 50}
		b.Run(fmt.Sprintf("arrow/n=%d", n), func(b *testing.B) {
			var mk sim.Time
			for i := 0; i < b.N; i++ {
				res, err := directory.RunArrow(t, center, cfg)
				if err != nil {
					b.Fatal(err)
				}
				mk = res.Makespan
			}
			b.ReportMetric(float64(mk), "makespan")
		})
		b.Run(fmt.Sprintf("home/n=%d", n), func(b *testing.B) {
			var mk sim.Time
			for i := 0; i < b.N; i++ {
				res, err := directory.RunHome(g, center, cfg)
				if err != nil {
					b.Fatal(err)
				}
				mk = res.Makespan
			}
			b.ReportMetric(float64(mk), "makespan")
		})
	}
}

// BenchmarkStabilize measures repair cost from heavy random corruption.
func BenchmarkStabilize(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := tree.BalancedBinary(n)
			rng := rand.New(rand.NewSource(1))
			corrupt := make([][]graph.NodeID, b.N)
			for i := range corrupt {
				links := make([]graph.NodeID, n)
				for v := range links {
					links[v] = graph.NodeID(rng.Intn(n))
				}
				corrupt[i] = links
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stabilize.Repair(t, corrupt[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIvyAmortized measures the Ivy find chain cost (Ginat et al.'s
// amortized Θ(log n)).
func BenchmarkIvyAmortized(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := ivy.NewDirectory(n, 0)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Find(graph.NodeID(rng.Intn(n)))
			}
			b.ReportMetric(d.AmortizedChain(), "chain/op")
		})
	}
}

// BenchmarkRuntimeVsSim is the DESIGN.md ablation: the same total-order
// workload executed on the deterministic simulator and on the goroutine
// runtime (wall-clock execution engines compared, not protocol cost).
func BenchmarkRuntimeVsSim(b *testing.B) {
	const n, requests = 31, 128
	t := tree.BalancedBinary(n)
	b.Run("sim", func(b *testing.B) {
		set := workload.OneShot(n, n/2, 3)
		for i := 0; i < b.N; i++ {
			if _, err := arrow.Run(t, set, arrow.Options{Root: 0}); err != nil {
				b.Fatal(err)
			}
		}
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
			for r := 0; r < requests; r++ {
				net.Request(graph.NodeID(r % n))
			}
			net.Stop()
			<-done
		}
	})
}

// BenchmarkOneShot measures the one-shot regime end to end, including
// the exact optimal computation.
func BenchmarkOneShot(b *testing.B) {
	for _, r := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rows, err := analysis.OneShotExperiment(32, []int{r}, 1)
				if err != nil {
					b.Fatal(err)
				}
				ratio = rows[0].Ratio
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// BenchmarkChurnRecovery measures the full degraded-mode cycle on the
// arrow closed loop: link churn drops queue messages, the embedded
// message-driven repair restores the pointer state, and lost requests
// re-issue. Reported metrics are the recovery costs (repair messages
// and simulated repair time per run) — deterministic for the fixed
// plan, so the smoke run doubles as a regression canary for the fault
// layer.
func BenchmarkChurnRecovery(b *testing.B) {
	t := tree.BalancedBinary(63)
	plan := &sim.FaultPlan{Events: sim.LinkChurn(sim.TreeLinks(t), 2, 40, 30, 1500, 7)}
	var res *arrow.LoopResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = arrow.RunClosedLoop(t, arrow.LoopConfig{Spec: loop.Spec{PerNode: 30, Faults: plan}, Root: 0})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Dropped == 0 {
		b.Fatal("churn plan dropped nothing; benchmark is vacuous")
	}
	b.ReportMetric(float64(res.RepairMessages), "repair-msgs")
	b.ReportMetric(float64(res.RepairTime), "repair-time")
	b.ReportMetric(float64(res.Reissued), "reissued")
}

// BenchmarkShardClosedLoop measures the multi-object shard driver — the
// hot issue/forward path shared by all four protocol steppers — with k
// arrow instances contending on one capacity-1 complete network. The
// reported ops/s is completed requests over wall clock; run with
// -benchmem to watch the driver's flat per-run allocation profile.
func BenchmarkShardClosedLoop(b *testing.B) {
	const n, perNode = 32, 16
	for _, k := range []int{16, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			topo := sim.NewCompleteTopology(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step, err := arrow.NewShardForest(n, k)
				if err != nil {
					b.Fatal(err)
				}
				res, err := shard.Run(topo, step, "arrow", shard.Spec{
					Spec:    loop.Spec{PerNode: perNode, Seed: 1, LinkTxTime: 1},
					Objects: k,
					Skew:    1.1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Agg.Requests != n*perNode {
					b.Fatalf("completed %d requests, want %d", res.Agg.Requests, n*perNode)
				}
			}
			b.ReportMetric(float64(n*perNode)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
