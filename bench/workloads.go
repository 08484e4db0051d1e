package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ivy"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// sizes fixes how much work one unit of each workload does. A unit is
// fixed work, not fixed time, so its simulated counts are exact; the
// harness repeats units until the requested seconds have passed.
type sizes struct {
	// scale is the share of the sizing table's per-node request counts the
	// sizes below stand for; result documents record it.
	scale          float64
	treeNodes      int // scale-arrow-tree, drain-parallel
	completeNodes  int // scale-central-complete
	arrowPerNode   int
	centralPerNode int
	gridNs         []int
	gridPerNode    int
	shardNodes     int
	shardObjects   int
	shardPerNode   int
	drainPerNode   int
	rtNodes        int
	rtObjects      int
	rtPerClient    int
	probeNodes     int
	probeEvents    int
}

// fullSizes is the sizing table at one tenth of its per-node request
// counts (300, 250, 40 000, 3000, 50 and 400 000 give 5–8 s units on the
// 2-core sizing host): a unit takes 0.5–0.8 s, so a 15 s pass holds about
// twenty units. Node counts are the table's own.
func fullSizes() sizes {
	return sizes{
		scale:          0.1,
		treeNodes:      100_001,
		completeNodes:  100_000,
		arrowPerNode:   30,
		centralPerNode: 25,
		gridNs:         []int{64, 76},
		gridPerNode:    4000,
		shardNodes:     1024,
		shardObjects:   1024,
		shardPerNode:   300,
		drainPerNode:   5,
		rtNodes:        63,
		rtObjects:      16,
		rtPerClient:    40_000,
		probeNodes:     100_000,
		probeEvents:    2_000_000,
	}
}

// smokeSizes is the ≈1/200 scale bench_test.go runs under -race: node
// counts shrink too, every code path stays.
func smokeSizes() sizes {
	return sizes{
		scale:          0.005,
		treeNodes:      2047,
		completeNodes:  2000,
		arrowPerNode:   4,
		centralPerNode: 4,
		gridNs:         []int{16, 20},
		gridPerNode:    40,
		shardNodes:     64,
		shardObjects:   64,
		shardPerNode:   20,
		drainPerNode:   4,
		rtNodes:        63,
		rtObjects:      16,
		rtPerClient:    1500,
		probeNodes:     2000,
		probeEvents:    20_000,
	}
}

// warmDivisor shrinks a unit into the warm-up run that setup_s includes.
const warmDivisor = 4

// maxLoadWorkers caps every kind of concurrency the harness asks for:
// load goroutines, drain workers, sweep workers.
const maxLoadWorkers = 2

// simTotals are the simulated quantities of one unit, summed over its
// cells. They depend only on the seed and the sizes, never on the host.
type simTotals struct {
	Requests  int64
	Events    int64
	Sends     int64
	Makespan  int64
	QueueHops int64
	Local     int64
	MaxHops   int
	// SendsBy splits Sends by the send probe that models them (the
	// probe's metric name): the cost model prices each send at the probe
	// measured under the same link-state and latency configuration.
	SendsBy map[string]int64
	// FarTimers counts timers the driver schedules far beyond the
	// scheduler's 512-tick ring — known from the driver's design, not
	// observed: only the coordinator's serve-finish timers behind a queue
	// thousands deep qualify.
	FarTimers int64
	// ZipfDraws counts object draws: the shard driver makes one per
	// request issued.
	ZipfDraws int64
	// Latency merges every cell recorder's latency histogram; nil where
	// the workload attaches no recorder.
	Latency *stats.Histogram
}

// cellStat is the per-cell detail the drain and sweep metrics need.
type cellStat struct {
	name   string
	wallS  float64
	cpuS   float64
	allocB uint64
	events int64
	drain  sim.DrainStats
}

// outcome is what one unit run produced.
type outcome struct {
	sim       simTotals
	attempted int64
	failed    int64
	digest    string
	cells     []cellStat
	// sweepWallS is the wall time of the engine.Sweep call alone.
	sweepWallS float64
	rt         *runtimeOutcome
	// problems lists every correctness check the unit failed.
	problems []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// digester accumulates the simulated results of a unit into one hash:
// equal digests across two commits mean bit-identical simulated
// behaviour on that workload and seed.
type digester struct{ parts []byte }

func (d *digester) add(label string, vals ...int64) {
	d.parts = fmt.Appendf(d.parts, "%s%v;", label, vals)
}

func (d *digester) dist(label string, h *stats.Histogram) {
	s := h.Snapshot()
	d.add(label, s.Count, s.Min, s.P50, s.P90, s.P99, s.P999, s.Max)
}

func (d *digester) sum() string {
	h := fnv.New64a()
	h.Write(d.parts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// loopFields is the counter shape arrow.LoopResult, loop.Result and
// centralized.LoopResult share field for field, so each converts with a
// plain type conversion (which stops compiling if one of them drifts).
type loopFields struct {
	N                int
	Requests         int64
	Makespan         sim.Time
	QueueHops        int64
	ReplyHops        int64
	LocalCompletions int64
	TotalLatency     int64
	MaxQueueHops     int
	Events           int64
	Dropped          int64
	Deferred         int64
	Reissued         int64
	RepliesLost      int64
	Affected         int64
	RepairEpisodes   int64
	RepairMessages   int64
	RepairTime       sim.Time
}

// cellSpec says how to check and to model one protocol run.
type cellSpec struct {
	label   string
	perNode int
	// hopBound is the most queue hops one request may take: the tree's
	// diameter for arrow, n-1 for the metric protocols.
	hopBound int
	// sendProbe names the probe that models this run's sends.
	sendProbe string
}

// absorb adds one protocol run to the unit's totals and digest and
// applies the checks every simulated run must pass: all requests
// completed, and no request took more hops than the protocol's bound.
func (o *outcome) absorb(d *digester, c cellSpec, r loopFields) {
	label, perNode, hopBound := c.label, c.perNode, c.hopBound
	want := int64(r.N) * int64(perNode)
	o.attempted += want
	if r.Requests != want {
		o.failed += want - min(r.Requests, want)
		o.fail("%s: completed %d of %d requests", label, r.Requests, want)
	}
	if r.MaxQueueHops > hopBound {
		o.fail("%s: a request took %d queue hops, bound is %d", label, r.MaxQueueHops, hopBound)
	}
	t := &o.sim
	t.Requests += r.Requests
	t.Events += r.Events
	// Every queue and reply hop of these workloads is one message over
	// one link (tree edges, or the complete metric's direct links).
	sends := r.QueueHops + r.ReplyHops
	t.Sends += sends
	if t.SendsBy == nil {
		t.SendsBy = map[string]int64{}
	}
	t.SendsBy[c.sendProbe] += sends
	t.Makespan += int64(r.Makespan)
	t.QueueHops += r.QueueHops
	t.Local += r.LocalCompletions
	t.MaxHops = max(t.MaxHops, r.MaxQueueHops)
	d.add(label, r.Requests, int64(r.Makespan), r.Events, r.QueueHops, r.ReplyHops,
		r.LocalCompletions, r.TotalLatency, int64(r.MaxQueueHops))
}

// absorbDist merges one cell's recorder into the unit's latency
// histogram and digest.
func (o *outcome) absorbDist(d *digester, label string, rec *stats.DistRecorder) {
	if o.sim.Latency == nil {
		o.sim.Latency = &stats.Histogram{}
	}
	o.sim.Latency.Merge(&rec.Latency)
	d.dist(label+"/lat", &rec.Latency)
	d.dist(label+"/hops", &rec.Hops)
}

// unit is one repetition of a workload: run is the timed part, teardown
// (may be nil) releases what run left open and finishes the checks.
type unit struct {
	run      func(parent int32) (*outcome, error)
	teardown func(o *outcome)
}

// instance is a workload after setup: its immutable inputs are built,
// and unit makes the per-repetition state.
type instance interface {
	// unit builds one repetition. serial reruns a parallel workload at
	// Workers 1 (others ignore it); div > 1 divides the work (warm-up);
	// a non-nil tr wraps every injectable interface in its decorator.
	unit(serial bool, div int, tr *tracer) (unit, error)
}

// workload is one named entry of the benchmark.
type workload struct {
	name string
	why  string
	// simulated workloads produce a sim_digest; runtime-live does not.
	simulated bool
	// concurrent workloads call wrapped layers from two goroutines.
	concurrent bool
	// hasSerial workloads also run kindSerial units in the traced pass.
	hasSerial bool
	setup     func(seed int64, sz sizes) (instance, error)
}

var workloads = []workload{
	{
		name:      "scale-arrow-tree",
		why:       "headline serial cell: ladder ring, link-state-free send, arrow handler and tree.Walker do all the work",
		simulated: true,
		setup:     setupArrowTree(1),
	},
	{
		name:      "scale-central-complete",
		why:       "makespan far beyond the 512-tick ring, so ladder refill and the overflow heap dominate; a ring-only win must not move it",
		simulated: true,
		setup:     setupCentral,
	},
	{
		name:       "paper-grid",
		why:        "what a paper reproducer runs: 24 small cells, four steppers, think timers, stream-RNG latency, histograms, 2 sweep workers",
		simulated:  true,
		concurrent: true,
		setup:      setupGrid,
	},
	{
		name:      "shard-capacity",
		why:       "send path with LinkTxTime 1: dense link-clock slot, capacity reservation, FIFO clamp, Zipf draws and the shard driver",
		simulated: true,
		setup:     setupShard,
	},
	{
		name:       "drain-parallel",
		why:        "the only workload entering sim/parallel.go (Workers 2, windows 1 and 8); every Workers 1 workload predicts no change from a drain edit",
		simulated:  true,
		concurrent: true,
		hasSerial:  true,
		setup:      setupArrowTree(maxLoadWorkers),
	},
	{
		name:       "runtime-live",
		why:        "goroutine runtime, closed loop of 2 clients, zero hop delay: latency is processor plus Go scheduler time only; shares no code with sim",
		concurrent: true,
		setup:      setupRuntime,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// seedNode derives a node in [0, n) from the seed.
func seedNode(seed int64, stream, n int) graph.NodeID {
	return graph.NodeID(uint64(sim.DeriveSeed(seed, stream)) % uint64(n))
}

// navDiameter returns the diameter of a unit-weight tree behind a
// tree.Nav by the classic double sweep: the node farthest from any node
// is one end of a longest path.
func navDiameter(t tree.Nav) int {
	far := func(from graph.NodeID) (graph.NodeID, graph.Weight) {
		best, bestD := from, graph.Weight(0)
		for v := 0; v < t.NumNodes(); v++ {
			if d := t.Dist(from, graph.NodeID(v)); d > bestD {
				best, bestD = graph.NodeID(v), d
			}
		}
		return best, bestD
	}
	a, _ := far(t.Root())
	_, d := far(a)
	return int(d)
}

// arrowTree is scale-arrow-tree (workers 1, one unit-latency cell) and
// drain-parallel (workers 2, a window-1 and a window-8 cell).
type arrowTree struct {
	seed     int64
	nav      *tree.Walker
	diameter int
	root     graph.NodeID
	perNode  int
	workers  int
	cells    []arrowCell
}

type arrowCell struct {
	name    string
	latency sim.LatencyModel
}

func setupArrowTree(workers int) func(int64, sizes) (instance, error) {
	return func(seed int64, sz sizes) (instance, error) {
		nav := tree.BinaryWalker(sz.treeNodes)
		a := &arrowTree{
			seed:     seed,
			nav:      nav,
			diameter: navDiameter(nav),
			root:     seedNode(seed, 0, sz.treeNodes),
			perNode:  sz.arrowPerNode,
			workers:  workers,
			cells:    []arrowCell{{name: "w1"}},
		}
		if workers > 1 {
			a.perNode = sz.drainPerNode
			a.cells = append(a.cells, arrowCell{name: "w8", latency: sim.SynchronousScaled(8)})
		}
		return a, nil
	}
}

func (a *arrowTree) unit(serial bool, div int, tr *tracer) (unit, error) {
	perNode := max(1, a.perNode/div)
	workers := a.workers
	if serial {
		workers = 1
	}
	runSpan := noSpan
	nav := wrapNav(tr, a.nav, &runSpan)
	return unit{run: func(parent int32) (*outcome, error) {
		o, d := &outcome{}, &digester{}
		d.add("root", int64(a.root))
		for _, c := range a.cells {
			var ds sim.DrainStats
			cfg := arrow.LoopConfig{
				Spec: loop.Spec{PerNode: perNode, Latency: c.latency, Seed: a.seed, Workers: workers, DrainStats: &ds},
				Root: a.root,
			}
			var res *arrow.LoopResult
			runSpan = tr.start("protocol.run:arrow/"+c.name, parent)
			cost, err := measure(func() (err error) {
				res, err = arrow.RunClosedLoop(nav, cfg)
				return err
			})
			tr.end(runSpan)
			if err != nil {
				return nil, fmt.Errorf("arrow closed loop (%s): %w", c.name, err)
			}
			o.absorb(d, cellSpec{c.name, perNode, a.diameter, "sim.probe.send_ns"}, loopFields(*res))
			o.cells = append(o.cells, cellStat{
				name: c.name, wallS: cost.wallS, cpuS: cost.cpuS(), allocB: cost.allocB,
				events: res.Events, drain: ds,
			})
		}
		o.digest = d.sum()
		return o, nil
	}}, nil
}

// central is scale-central-complete.
type central struct {
	seed    int64
	topo    sim.CompleteTopology
	center  graph.NodeID
	perNode int
}

func setupCentral(seed int64, sz sizes) (instance, error) {
	return &central{
		seed:    seed,
		topo:    sim.NewCompleteTopology(sz.completeNodes),
		center:  seedNode(seed, 0, sz.completeNodes),
		perNode: sz.centralPerNode,
	}, nil
}

func (c *central) unit(_ bool, div int, tr *tracer) (unit, error) {
	perNode := max(1, c.perNode/div)
	runSpan := noSpan
	topo := wrapTopology(tr, c.topo, &runSpan)
	return unit{run: func(parent int32) (*outcome, error) {
		runSpan = tr.start("protocol.run:centralized", parent)
		res, err := centralized.RunClosedLoopTopo(topo, centralized.LoopConfig{
			Spec:   loop.Spec{PerNode: perNode, Seed: c.seed, Workers: 1},
			Center: c.center,
		})
		tr.end(runSpan)
		if err != nil {
			return nil, fmt.Errorf("centralized closed loop: %w", err)
		}
		o, d := &outcome{}, &digester{}
		d.add("center", int64(c.center))
		o.absorb(d, cellSpec{"centralized", perNode, res.N - 1, "sim.probe.send_ns"}, loopFields(*res))
		// Every node's first request reaches the center at once, so all but
		// the first ring's worth of serve-finish timers — one per request —
		// are scheduled thousands of ticks ahead.
		o.sim.FarTimers = res.Requests
		o.digest = d.sum()
		return o, nil
	}}, nil
}

// grid is paper-grid: `arrowbench -exp perf` at 0.4× the paper's
// request count — {arrow, centralized, NTA, Ivy} × n × {saturated,
// think 16, AsyncUniform(4)}, one private DistRecorder per cell.
type grid struct {
	seed    int64
	perNode int
	graphs  []*graph.Graph
	trees   []*tree.Tree
}

type gridRegime struct {
	name      string
	think     sim.Time
	latency   sim.LatencyModel
	sendProbe string
}

var gridRegimes = []gridRegime{
	{name: "saturated", sendProbe: "sim.probe.send_ns"},
	{name: "think16", think: 16, sendProbe: "sim.probe.send_ns"},
	{name: "async4", latency: sim.AsyncUniform(4), sendProbe: "sim.probe.send_async_ns"},
}

var gridProtocols = []engine.Protocol{engine.Arrow{}, engine.Centralized{}, engine.NTA{}, engine.Ivy{}}

func setupGrid(seed int64, sz sizes) (instance, error) {
	g := &grid{seed: seed, perNode: sz.gridPerNode}
	for _, n := range sz.gridNs {
		g.graphs = append(g.graphs, graph.Complete(n))
		g.trees = append(g.trees, tree.BalancedBinary(n))
	}
	return g, nil
}

func (g *grid) unit(_ bool, div int, tr *tracer) (unit, error) {
	perNode := max(1, g.perNode/div)
	var (
		cells  []engine.Cell
		recs   []*stats.DistRecorder
		bounds []int
		// sendProbes[i] models cell i's sends: the stream-RNG probe for
		// the AsyncUniform regime, the plain one otherwise.
		sendProbes []string
		sweep      = noSpan
		cellSpan   = make([]int32, len(g.graphs)*len(gridRegimes)*len(gridProtocols))
		busyNS     = make([]int64, len(cellSpan))
	)
	for i, gr := range g.graphs {
		n := gr.NumNodes()
		for j, regime := range gridRegimes {
			wl, err := engine.NewClosedLoop(perNode).Think(regime.think).Build()
			if err != nil {
				return unit{}, err
			}
			for _, p := range gridProtocols {
				idx := len(cells)
				rec := stats.NewDistRecorder()
				bound := n - 1
				if p.Name() == "arrow" {
					bound = int(g.trees[i].Diameter())
				}
				if tr != nil {
					p = cellTrace{in: p, tr: tr, sweep: &sweep, cell: &cellSpan[idx], busyNS: &busyNS[idx]}
				}
				cells = append(cells, engine.Cell{Protocol: p, Instance: engine.Instance{
					Label:    fmt.Sprintf("n=%d/%s", n, regime.name),
					Graph:    gr,
					Tree:     g.trees[i],
					Workload: wl,
					Latency:  regime.latency,
					Seed:     engine.DeriveSeed(g.seed, i*len(gridRegimes)+j),
					Recorder: wrapRecorder(tr, rec, &cellSpan[idx]),
				}})
				recs = append(recs, rec)
				bounds = append(bounds, bound)
				sendProbes = append(sendProbes, regime.sendProbe)
			}
		}
	}
	return unit{run: func(parent int32) (*outcome, error) {
		sweep = tr.start("sweep", parent)
		start := time.Now()
		outs := engine.Sweep(cells, maxLoadWorkers)
		sweepWall := time.Since(start)
		tr.end(sweep)
		if err := engine.FirstError(outs); err != nil {
			return nil, fmt.Errorf("paper-grid sweep: %w", err)
		}
		o, d := &outcome{sweepWallS: sweepWall.Seconds()}, &digester{}
		for i, out := range outs {
			c := out.Cost
			label := c.Protocol + "/" + c.Label
			o.absorb(d, cellSpec{label, perNode, bounds[i], sendProbes[i]}, loopFields{
				N: c.N, Requests: c.Requests, Makespan: c.Makespan, QueueHops: c.QueueHops,
				ReplyHops: c.ReplyHops, LocalCompletions: c.LocalCompletions,
				TotalLatency: c.TotalLatency, MaxQueueHops: c.MaxHops, Events: c.Events,
			})
			o.absorbDist(d, label, recs[i])
			o.cells = append(o.cells, cellStat{name: label, wallS: float64(busyNS[i]) * 1e-9, events: c.Events})
		}
		o.digest = d.sum()
		return o, nil
	}}, nil
}

// shardCap is shard-capacity: the four shard steppers in turn on one
// capacity-1 complete network under Zipf(1.1) object popularity.
type shardCap struct {
	seed    int64
	topo    sim.CompleteTopology
	objects int
	perNode int
}

func setupShard(seed int64, sz sizes) (instance, error) {
	return &shardCap{
		seed:    seed,
		topo:    sim.NewCompleteTopology(sz.shardNodes),
		objects: sz.shardObjects,
		perNode: sz.shardPerNode,
	}, nil
}

// shardSteppers builds fresh pointer state for each protocol: steppers
// are mutated by a run, so every unit needs its own.
func shardSteppers(n, k int) (names []string, steps []shard.Stepper, err error) {
	build := []struct {
		name string
		make func() (shard.Stepper, error)
	}{
		{"arrow", func() (shard.Stepper, error) { return arrow.NewShardForest(n, k) }},
		{"centralized", func() (shard.Stepper, error) { return centralized.NewShardCenters(n, k) }},
		{"nta", func() (shard.Stepper, error) { return nta.NewShardReversal(n, k) }},
		{"ivy", func() (shard.Stepper, error) { return ivy.NewShardDirectory(n, k) }},
	}
	for _, b := range build {
		st, err := b.make()
		if err != nil {
			return nil, nil, fmt.Errorf("shard stepper %s: %w", b.name, err)
		}
		names, steps = append(names, b.name), append(steps, st)
	}
	return names, steps, nil
}

func (s *shardCap) unit(_ bool, div int, tr *tracer) (unit, error) {
	perNode := max(1, s.perNode/div)
	names, steps, err := shardSteppers(s.topo.N, s.objects)
	if err != nil {
		return unit{}, err
	}
	runSpan := noSpan
	topo := wrapTopology(tr, s.topo, &runSpan)
	recs := make([]*stats.DistRecorder, len(steps))
	for i := range steps {
		steps[i] = wrapStepper(tr, steps[i], &runSpan)
		recs[i] = stats.NewDistRecorder()
	}
	return unit{run: func(parent int32) (*outcome, error) {
		o, d := &outcome{}, &digester{}
		for i, step := range steps {
			runSpan = tr.start("protocol.run:shard/"+names[i], parent)
			res, err := shard.Run(topo, step, names[i], shard.Spec{
				Spec: loop.Spec{
					PerNode: perNode, LinkTxTime: 1, Seed: s.seed, Workers: 1,
					Recorder: wrapRecorder(tr, recs[i], &runSpan),
				},
				Objects: s.objects,
				Skew:    1.1,
			})
			tr.end(runSpan)
			if err != nil {
				return nil, fmt.Errorf("shard run %s: %w", names[i], err)
			}
			o.absorb(d, cellSpec{names[i], perNode, res.N - 1, "sim.probe.send_linktx_ns"}, loopFields(res.Agg))
			o.absorbDist(d, names[i], recs[i])
			o.sim.ZipfDraws += res.Agg.Requests
		}
		o.digest = d.sum()
		return o, nil
	}}, nil
}
