package analysis

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/ivy"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/sim"
	"repro/internal/tree"
)

// ScaleConfig drives the million-node scale experiment: every protocol
// on its implicit topology — arrow on generated binary and grid trees
// (tree.Walker / tree.GridNav, no LCA tables), the complete-graph
// protocols on sim.CompleteTopology (no O(n²) distance matrix) — with
// per-cell memory and throughput accounting. Unlike the perf grid, the
// point here is not the request distributions but whether the stack
// holds n = 10⁶ in flat per-node state.
type ScaleConfig struct {
	// Sizes are the node counts; nil defaults to 10k, 100k, 1M.
	Sizes []int
	// PerNode fixes requests per node when positive. When 0, each size
	// issues max(1, MaxRequests/n) per node so total work stays roughly
	// flat across sizes instead of exploding with n.
	PerNode int
	// MaxRequests is the total-request budget behind the PerNode=0
	// default; 0 defaults to 2 million.
	MaxRequests int64
	// Seed derives each cell's simulation seed.
	Seed int64
	// Workers > 1 requests the lookahead-windowed parallel drain inside
	// each run (see sim.Config.Workers); results are bit-identical at any
	// count. 0 means 1: the headline rows run the serial drain, the
	// fastest measured configuration, and the parallel drain is an
	// explicit choice (here or through WorkerSweep).
	Workers int
	// LatScale, when > 1, runs every cell under
	// sim.SynchronousScaled(LatScale) instead of the default unit
	// synchronous model. The scaled model's MinDelay() widens the
	// parallel drain's lookahead window to LatScale ticks, fusing that
	// many ladder buckets per barrier — the knob that makes the window
	// telemetry (and the barrier amortization it measures) visible in
	// the sweep. Deterministic outputs still satisfy the sweep's
	// bit-identity audit; they just describe the scaled-latency system.
	LatScale int64
	// WorkerSweep, when non-empty, reruns every cell at each listed
	// drain worker count and reports per-count events/s plus the
	// parallel speedup over the serial (workers=1) rerun — report-only
	// columns, never gated, like every wall-clock quantity here. A
	// missing 1 is prepended so the speedup baseline always exists, and
	// every rerun's deterministic outputs are checked against the base
	// row (a divergence fails the experiment: the sweep doubles as a
	// determinism audit of the parallel drain).
	WorkerSweep []int
}

// workerSweep normalizes the sweep: nil stays nil; otherwise the counts
// are deduplicated, floored at 1, and led by the serial baseline.
func (c *ScaleConfig) workerSweep() []int {
	if len(c.WorkerSweep) == 0 {
		return nil
	}
	out := []int{1}
	seen := map[int]bool{1: true}
	for _, w := range c.WorkerSweep {
		if w < 1 {
			w = 1
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// workers returns the base rows' drain width (see Workers).
func (c *ScaleConfig) workers() int {
	return max(c.Workers, 1)
}

// latency returns the cells' latency model: nil (the simulator's unit
// synchronous default) unless LatScale widens it.
func (c *ScaleConfig) latency() sim.LatencyModel {
	if c.LatScale > 1 {
		return sim.SynchronousScaled(c.LatScale)
	}
	return nil
}

func (c *ScaleConfig) sizes() []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	return []int{10_000, 100_000, 1_000_000}
}

func (c *ScaleConfig) perNode(n int) int {
	if c.PerNode > 0 {
		return c.PerNode
	}
	budget := c.MaxRequests
	if budget <= 0 {
		budget = 2_000_000
	}
	per := budget / int64(n)
	if per < 1 {
		per = 1
	}
	return int(per)
}

// ScaleRow is one protocol × topology × size cell of the scale
// experiment. The simulated quantities (Requests, Makespan, Events,
// QueueHops) are deterministic for a fixed config; WallNanos and
// AllocBytes vary run to run and exist for the throughput and
// bytes-per-node columns only.
type ScaleRow struct {
	Protocol  string
	Topology  string
	N         int
	PerNode   int
	Requests  int64
	Makespan  sim.Time
	Events    int64
	QueueHops int64
	WallNanos int64
	// AllocBytes is the cell's cumulative heap allocation
	// (runtime.MemStats.TotalAlloc delta across the run) — the honest
	// "does node state stay flat" number: it includes every transient,
	// so per-request garbage would show up as growth, not hide behind
	// the collector.
	AllocBytes int64
	Workers    int
	// Drain is the base run's drain telemetry: the derived lookahead
	// window width, how many fused parallel windows (barriers) the run
	// paid, and how many events they covered. Telemetry, not part of the
	// determinism tuple: a serial run reports zero windows.
	Drain sim.DrainStats
	// Sweep holds the cell's worker-sweep reruns (nil without
	// ScaleConfig.WorkerSweep). Each point reran the identical cell at a
	// different drain worker count; the deterministic outputs matched
	// the base row, so only the wall clock differs.
	Sweep []ScaleSweepPoint
}

// ScaleSweepPoint is one worker-count rerun of a scale cell.
type ScaleSweepPoint struct {
	Workers   int
	Events    int64
	WallNanos int64
	// Drain is the rerun's drain telemetry — the why behind the wall
	// clock: barriers paid (Windows) and events fused per barrier
	// (MeanBatch) at this worker count.
	Drain sim.DrainStats
}

// EventsPerSec is the rerun's wall-clock simulator throughput.
func (p ScaleSweepPoint) EventsPerSec() float64 {
	if p.WallNanos <= 0 {
		return 0
	}
	return float64(p.Events) / (float64(p.WallNanos) * 1e-9)
}

// SweepSpeedup returns the sweep point's throughput relative to the
// sweep's serial (workers=1) point — the reported parallel speedup.
func (r ScaleRow) SweepSpeedup(p ScaleSweepPoint) float64 {
	for _, base := range r.Sweep {
		if base.Workers == 1 {
			if b := base.EventsPerSec(); b > 0 {
				return p.EventsPerSec() / b
			}
			return 0
		}
	}
	return 0
}

// EventsPerSec is the cell's wall-clock simulator throughput.
func (r ScaleRow) EventsPerSec() float64 {
	if r.WallNanos <= 0 {
		return 0
	}
	return float64(r.Events) / (float64(r.WallNanos) * 1e-9)
}

// BytesPerNode is the cell's allocation footprint per node.
func (r ScaleRow) BytesPerNode() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.AllocBytes) / float64(r.N)
}

// scaleCell is one deferred run: construction of the implicit topology
// happens inside run() so its allocations land in the cell's measured
// TotalAlloc delta. run takes the drain worker count so the worker
// sweep can rerun the identical cell at different counts; alongside the
// deterministic result tuple it returns the run's drain telemetry (which
// legitimately varies with the worker count and stays outside the
// sweep's bit-identity comparison).
type scaleCell struct {
	protocol string
	topology string
	n        int
	perNode  int
	run      func(workers int) (loop.Result, sim.DrainStats, error)
}

// gridSide returns the comb-tree grid dimensions closest to n nodes:
// side = round(sqrt(n)), capped so the saturated token walk (path
// length Θ(side)) stays tractable at a million nodes.
func gridSide(n int) int {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	return side
}

func scaleCells(cfg *ScaleConfig) []scaleCell {
	var cells []scaleCell
	lat := cfg.latency()
	for i, n := range cfg.sizes() {
		per := cfg.perNode(n)
		side := gridSide(n)
		seed := sim.DeriveSeed(cfg.Seed, i)
		// Every closed-loop driver takes a loop.Spec and returns a
		// loop.Result, so a cell is its labels plus the one call.
		cell := func(protocol, topology string, n int, run func(loop.Spec) (*loop.Result, error)) scaleCell {
			return scaleCell{protocol, topology, n, per, func(workers int) (loop.Result, sim.DrainStats, error) {
				var ds sim.DrainStats
				res, err := run(loop.Spec{PerNode: per, Seed: seed, Workers: workers, Latency: lat, DrainStats: &ds})
				if err != nil {
					return loop.Result{}, ds, err
				}
				return *res, ds, nil
			}}
		}
		cells = append(cells,
			cell("arrow", "binary-tree", n, func(spec loop.Spec) (*loop.Result, error) {
				return arrow.RunClosedLoop(tree.BinaryWalker(n), arrow.LoopConfig{Spec: spec})
			}),
			cell("arrow", "grid", side*side, func(spec loop.Spec) (*loop.Result, error) {
				return arrow.RunClosedLoop(tree.GridWalker(side, side), arrow.LoopConfig{Spec: spec})
			}),
			cell("centralized", "complete", n, func(spec loop.Spec) (*loop.Result, error) {
				return centralized.RunClosedLoopTopo(sim.NewCompleteTopology(n), centralized.LoopConfig{Spec: spec})
			}),
			cell("nta", "complete", n, func(spec loop.Spec) (*loop.Result, error) {
				return nta.RunClosedLoopTopo(sim.NewCompleteTopology(n), nta.LoopConfig{Spec: spec})
			}),
			cell("ivy", "complete", n, func(spec loop.Spec) (*loop.Result, error) {
				return ivy.RunClosedLoopTopo(sim.NewCompleteTopology(n), ivy.LoopConfig{Spec: spec})
			}),
		)
	}
	return cells
}

// ScaleExperiment runs the scale grid. Cells run strictly sequentially —
// unlike the other experiments there is no sweep-level parallelism,
// because each cell's allocation delta must not include a concurrent
// neighbor's heap traffic (intra-cell drain parallelism via
// cfg.Workers is fine: its allocations belong to the cell).
func ScaleExperiment(cfg ScaleConfig) ([]ScaleRow, error) {
	cells := scaleCells(&cfg)
	sweep := cfg.workerSweep()
	rows := make([]ScaleRow, 0, len(cells))
	var ms runtime.MemStats
	for _, c := range cells {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now() //arrow:allow determinism report-only wall clock: scale events/s is machine-dependent and never gated
		out, drain, err := c.run(cfg.workers())
		wall := time.Since(start).Nanoseconds() //arrow:allow determinism report-only wall clock: scale events/s is machine-dependent and never gated
		runtime.ReadMemStats(&ms)
		if err != nil {
			return nil, fmt.Errorf("analysis: scale %s/%s n=%d: %w", c.protocol, c.topology, c.n, err)
		}
		row := ScaleRow{
			Protocol:   c.protocol,
			Topology:   c.topology,
			N:          c.n,
			PerNode:    c.perNode,
			Requests:   out.Requests,
			Makespan:   out.Makespan,
			Events:     out.Events,
			QueueHops:  out.QueueHops,
			WallNanos:  wall,
			AllocBytes: int64(ms.TotalAlloc - before),
			Workers:    cfg.workers(),
			Drain:      drain,
		}
		// Worker sweep: rerun the identical cell at each count, timing
		// only. Deterministic outputs must match the base run exactly —
		// the drain contract — so a mismatch is an error, not a report.
		for _, w := range sweep {
			runtime.GC()
			swStart := time.Now() //arrow:allow determinism report-only wall clock: sweep events/s is machine-dependent and never gated
			swOut, swDrain, err := c.run(w)
			swWall := time.Since(swStart).Nanoseconds() //arrow:allow determinism report-only wall clock: sweep events/s is machine-dependent and never gated
			if err != nil {
				return nil, fmt.Errorf("analysis: scale sweep %s/%s n=%d workers=%d: %w", c.protocol, c.topology, c.n, w, err)
			}
			if swOut != out {
				return nil, fmt.Errorf("analysis: scale sweep %s/%s n=%d workers=%d diverged from base run: %+v != %+v",
					c.protocol, c.topology, c.n, w, swOut, out)
			}
			row.Sweep = append(row.Sweep, ScaleSweepPoint{Workers: w, Events: swOut.Events, WallNanos: swWall, Drain: swDrain})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScaleTable formats the scale rows: deterministic protocol work on the
// left, the two resource columns (throughput, bytes/node) on the right.
func ScaleTable(rows []ScaleRow) *Table {
	t := &Table{
		Title: "Scale — implicit topologies, closed loop (sequential cells)",
		Headers: []string{"protocol", "topology", "n", "per-node", "reqs",
			"makespan", "events", "qhops/req", "Mev/s", "B/node",
			"window", "windows", "batch", "far_pushes", "heap_pushes", "refills"},
	}
	for _, r := range rows {
		qper := 0.0
		if r.Requests > 0 {
			qper = float64(r.QueueHops) / float64(r.Requests)
		}
		t.AddRow(r.Protocol, r.Topology, r.N, r.PerNode, r.Requests,
			int64(r.Makespan), r.Events, qper, r.EventsPerSec()/1e6, r.BytesPerNode(),
			int64(r.Drain.WindowWidth), r.Drain.Windows, r.Drain.MeanBatch(),
			r.Drain.Sched.Far(), r.Drain.Sched.HeapPushes, r.Drain.Sched.Refills)
	}
	return t
}

// ScaleSchema versions the machine-readable scale document (see
// PerfSchema for the bump discipline).
const ScaleSchema = "arrowbench/scale/v1"

// ScaleDocConfig records the experiment parameters inside the document.
type ScaleDocConfig struct {
	Sizes       []int `json:"sizes"`
	PerNode     int   `json:"per_node"`
	MaxRequests int64 `json:"max_requests"`
	Seed        int64 `json:"seed"`
	Workers     int   `json:"workers"`
	// LatScale is the synchronous latency scale of every cell (absent at
	// the default unit scale); it equals the drain's lookahead window
	// width under the scaled model.
	LatScale int64 `json:"lat_scale,omitempty"`
	// WorkerSweep is the normalized worker-sweep request (absent without
	// one; always led by the serial baseline 1 otherwise).
	WorkerSweep []int `json:"worker_sweep,omitempty"`
}

// ScaleDocRow is one row of the scale document. Requests, Makespan,
// Events and QueueHops are deterministic for a fixed config;
// EventsPerSec and the byte columns are machine-dependent and reported
// for trend reading, never gated.
type ScaleDocRow struct {
	Protocol     string  `json:"protocol"`
	Topology     string  `json:"topology"`
	N            int     `json:"n"`
	PerNode      int     `json:"per_node"`
	Requests     int64   `json:"requests"`
	Makespan     int64   `json:"makespan"`
	Events       int64   `json:"events"`
	QueueHops    int64   `json:"queue_hops"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocBytes   int64   `json:"alloc_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
	Workers      int     `json:"workers"`
	// WindowWidth is the drain's derived lookahead window width in ticks
	// (the latency model's MinDelay; 1 for a serial run), Windows the
	// number of fused parallel windows — barriers — the base run paid,
	// and MeanBatch the mean events fused per window (0 when every
	// window fell back to serial dispatch). Telemetry like
	// events_per_sec: shape-checked by benchcheck, never gated on value.
	WindowWidth int64   `json:"window_width"`
	Windows     int64   `json:"windows"`
	MeanBatch   float64 `json:"mean_batch"`
	// FarPushes, HeapPushes and Refills are the scheduler's far-tier
	// work counters for the base run (sim.SchedStats): pushes parked in
	// the far timing wheels, pushes that fell through to the binary heap
	// (more than 2²⁷ ticks out), and far buckets opened. Deterministic
	// for a fixed config and worker count; benchcheck requires the
	// fields and checks their shape.
	FarPushes  int64 `json:"far_pushes"`
	HeapPushes int64 `json:"heap_pushes"`
	Refills    int64 `json:"refills"`
	// WorkersSweep reports the cell's per-worker-count throughput and
	// parallel speedup (absent without a sweep). Like events_per_sec,
	// these are machine-dependent, reported for trend reading and shape
	// checked by benchcheck — never gated on value.
	WorkersSweep []ScaleSweepDocPoint `json:"workers_sweep,omitempty"`
}

// ScaleSweepDocPoint is one worker-count rerun in the document. Windows
// and MeanBatch carry the rerun's drain telemetry so the artifact shows
// *why* events/s moved: fewer barriers, bigger fused batches.
type ScaleSweepDocPoint struct {
	Workers      int     `json:"workers"`
	EventsPerSec float64 `json:"events_per_sec"`
	Speedup      float64 `json:"speedup"`
	Windows      int64   `json:"windows"`
	MeanBatch    float64 `json:"mean_batch"`
}

// ScaleDoc is the stable schema of `arrowbench -exp scale -json`.
type ScaleDoc struct {
	Schema string         `json:"schema"`
	Config ScaleDocConfig `json:"config"`
	Rows   []ScaleDocRow  `json:"rows"`
}

// ScaleDocument assembles the machine-readable scale document.
func ScaleDocument(cfg ScaleConfig, rows []ScaleRow) ScaleDoc {
	maxReq := cfg.MaxRequests
	if maxReq <= 0 && cfg.PerNode <= 0 {
		maxReq = 2_000_000
	}
	latScale := cfg.LatScale
	if latScale <= 1 {
		latScale = 0 // unit scale: omitted from the document
	}
	doc := ScaleDoc{
		Schema: ScaleSchema,
		Config: ScaleDocConfig{
			Sizes: cfg.sizes(), PerNode: cfg.PerNode,
			MaxRequests: maxReq, Seed: cfg.Seed, Workers: cfg.workers(),
			LatScale:    latScale,
			WorkerSweep: cfg.workerSweep(),
		},
		Rows: make([]ScaleDocRow, len(rows)),
	}
	for i, r := range rows {
		doc.Rows[i] = ScaleDocRow{
			Protocol:     r.Protocol,
			Topology:     r.Topology,
			N:            r.N,
			PerNode:      r.PerNode,
			Requests:     r.Requests,
			Makespan:     int64(r.Makespan),
			Events:       r.Events,
			QueueHops:    r.QueueHops,
			EventsPerSec: r.EventsPerSec(),
			AllocBytes:   r.AllocBytes,
			BytesPerNode: r.BytesPerNode(),
			Workers:      r.Workers,
			WindowWidth:  int64(r.Drain.WindowWidth),
			Windows:      r.Drain.Windows,
			MeanBatch:    r.Drain.MeanBatch(),
			FarPushes:    r.Drain.Sched.Far(),
			HeapPushes:   r.Drain.Sched.HeapPushes,
			Refills:      r.Drain.Sched.Refills,
		}
		for _, p := range r.Sweep {
			doc.Rows[i].WorkersSweep = append(doc.Rows[i].WorkersSweep, ScaleSweepDocPoint{
				Workers:      p.Workers,
				EventsPerSec: p.EventsPerSec(),
				Speedup:      r.SweepSpeedup(p),
				Windows:      p.Drain.Windows,
				MeanBatch:    p.Drain.MeanBatch(),
			})
		}
	}
	return doc
}

// ScaleSweepTable formats the worker-sweep columns, or returns nil when
// no row carries a sweep.
func ScaleSweepTable(rows []ScaleRow) *Table {
	any := false
	for _, r := range rows {
		if len(r.Sweep) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	t := &Table{
		Title:   "Scale — drain worker sweep (report-only; identical simulated results, wall clock varies)",
		Headers: []string{"protocol", "topology", "n", "workers", "Mev/s", "speedup", "windows", "batch"},
	}
	for _, r := range rows {
		for _, p := range r.Sweep {
			t.AddRow(r.Protocol, r.Topology, r.N, p.Workers,
				p.EventsPerSec()/1e6, r.SweepSpeedup(p), p.Drain.Windows, p.Drain.MeanBatch())
		}
	}
	return t
}
