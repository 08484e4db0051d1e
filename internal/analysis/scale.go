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
	Sizes []int `json:"sizes"`
	// PerNode fixes requests per node when positive. When 0, each size
	// issues max(1, MaxRequests/n) per node so total work stays roughly
	// flat across sizes instead of exploding with n.
	PerNode int `json:"per_node"`
	// MaxRequests is the total-request budget behind the PerNode=0
	// default; 0 defaults to 2 million.
	MaxRequests int64 `json:"max_requests"`
	// Seed derives each cell's simulation seed.
	Seed int64 `json:"seed"`
}

// resolved returns the config with its defaults filled in: what the
// experiment runs and what its document records.
func (c ScaleConfig) resolved() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{10_000, 100_000, 1_000_000}
	}
	if c.MaxRequests <= 0 && c.PerNode <= 0 {
		c.MaxRequests = 2_000_000
	}
	return c
}

// perNode is the per-node request count of an n-node cell of a resolved
// config.
func (c ScaleConfig) perNode(n int) int {
	if c.PerNode > 0 {
		return c.PerNode
	}
	return int(max(1, c.MaxRequests/int64(n)))
}

// ScaleRow is one protocol × topology × size cell of the scale
// experiment and one row of its document. Everything but EventsPerSec,
// AllocBytes and BytesPerNode is a simulated quantity, deterministic
// for a fixed config; those three measure the host (the golden document
// holds 0 there).
type ScaleRow struct {
	Protocol     string   `json:"protocol"`
	Topology     string   `json:"topology"`
	N            int      `json:"n"`
	PerNode      int      `json:"per_node"`
	Requests     int64    `json:"requests"`
	Makespan     sim.Time `json:"makespan"`
	Events       int64    `json:"events"`
	QueueHops    int64    `json:"queue_hops"`
	EventsPerSec float64  `json:"events_per_sec"`
	// AllocBytes is the cell's cumulative heap allocation
	// (runtime.MemStats.TotalAlloc delta across the run) — the honest
	// "does node state stay flat" number: it includes every transient,
	// so per-request garbage would show up as growth, not hide behind
	// the collector. BytesPerNode is AllocBytes / N.
	AllocBytes   int64   `json:"alloc_bytes"`
	BytesPerNode float64 `json:"bytes_per_node"`
	// FarPushes, HeapPushes and Refills are the scheduler's far-tier
	// work counters (sim.SchedStats): pushes parked in the far timing
	// wheels, pushes that fell through to the binary heap (more than 2²⁷
	// ticks out), and far buckets opened.
	FarPushes  int64 `json:"far_pushes"`
	HeapPushes int64 `json:"heap_pushes"`
	Refills    int64 `json:"refills"`
}

// scaleCell is one deferred run: construction of the implicit topology
// happens inside run() so its allocations land in the cell's measured
// TotalAlloc delta.
type scaleCell struct {
	protocol string
	topology string
	n        int
	perNode  int
	run      func() (loop.Result, sim.SchedStats, error)
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
	for i, n := range cfg.Sizes {
		per := cfg.perNode(n)
		side := gridSide(n)
		seed := sim.DeriveSeed(cfg.Seed, i)
		// Every closed-loop driver takes a loop.Spec and returns a
		// loop.Result, so a cell is its labels plus the one call.
		cell := func(protocol, topology string, n int, run func(loop.Spec) (*loop.Result, error)) scaleCell {
			return scaleCell{protocol, topology, n, per, func() (loop.Result, sim.SchedStats, error) {
				var ds sim.DrainStats
				res, err := run(loop.Spec{PerNode: per, Seed: seed, DrainStats: &ds})
				if err != nil {
					return loop.Result{}, ds.Sched, err
				}
				return *res, ds.Sched, nil
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
// neighbor's heap traffic. It returns the arrowbench/scale document.
func ScaleExperiment(cfg ScaleConfig) (Document[ScaleConfig, ScaleRow], error) {
	doc := Document[ScaleConfig, ScaleRow]{Schema: ScaleSchema, Config: cfg.resolved()}
	cells := scaleCells(&doc.Config)
	doc.Rows = make([]ScaleRow, 0, len(cells))
	var ms runtime.MemStats
	for _, c := range cells {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now() //arrow:allow determinism report-only wall clock: scale events/s is machine-dependent and never gated
		out, sched, err := c.run()
		wall := time.Since(start).Nanoseconds() //arrow:allow determinism report-only wall clock: scale events/s is machine-dependent and never gated
		runtime.ReadMemStats(&ms)
		if err != nil {
			return doc, fmt.Errorf("analysis: scale %s/%s n=%d: %w", c.protocol, c.topology, c.n, err)
		}
		alloc := int64(ms.TotalAlloc - before)
		doc.Rows = append(doc.Rows, ScaleRow{
			Protocol:     c.protocol,
			Topology:     c.topology,
			N:            c.n,
			PerNode:      c.perNode,
			Requests:     out.Requests,
			Makespan:     out.Makespan,
			Events:       out.Events,
			QueueHops:    out.QueueHops,
			EventsPerSec: eventsPerSec(out.Events, wall),
			AllocBytes:   alloc,
			BytesPerNode: float64(alloc) / float64(c.n),
			FarPushes:    sched.Far(),
			HeapPushes:   sched.HeapPushes,
			Refills:      sched.Refills,
		})
	}
	return doc, nil
}

// perRequest is a per-operation average; 0 for a cell with no requests.
func perRequest(total, requests int64) float64 {
	if requests == 0 {
		return 0
	}
	return float64(total) / float64(requests)
}

// ScaleTable formats the scale rows: deterministic protocol work on the
// left, the two resource columns (throughput, bytes/node) on the right.
func ScaleTable(rows []ScaleRow) *Table {
	t := &Table{
		Title: "Scale — implicit topologies, closed loop (sequential cells)",
		Headers: []string{"protocol", "topology", "n", "per-node", "reqs",
			"makespan", "events", "qhops/req", "Mev/s", "B/node",
			"far_pushes", "heap_pushes", "refills"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Topology, r.N, r.PerNode, r.Requests,
			int64(r.Makespan), r.Events, perRequest(r.QueueHops, r.Requests), r.EventsPerSec/1e6, r.BytesPerNode,
			r.FarPushes, r.HeapPushes, r.Refills)
	}
	return t
}

// ScaleSchema versions the machine-readable scale document (see
// PerfSchema for the bump discipline). v2 dropped the parallel drain's
// columns (workers, window_width, windows, mean_batch, workers_sweep,
// lat_scale, worker_sweep) with the drain itself.
const ScaleSchema = "arrowbench/scale/v2"
