package analysis

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// PerfWorkload is one workload column of the perf grid: a closed-loop
// regime variant whose tail behavior the aggregate tables cannot
// express.
type PerfWorkload struct {
	// Name labels the workload in rows and the JSON schema.
	Name string
	// Think is the closed-loop think time (0 = saturated, one local
	// step between completion and re-issue).
	Think sim.Time
	// Latency is the delay model (nil = synchronous unit latency).
	Latency sim.LatencyModel
}

// PerfWorkloads is the fixed workload axis of the perf experiment, in
// column order: the paper's saturated Section 5 regime, a think-time
// variant that drains the queue pressure, and an asynchronous-delay
// variant (Section 3.8 models) that spreads the latency tail.
func PerfWorkloads() []PerfWorkload {
	return []PerfWorkload{
		{Name: "saturated"},
		{Name: "think16", Think: 16},
		{Name: "async4", Latency: sim.AsyncUniform(4)},
	}
}

// PerfRow is one protocol × size × workload cell of the perf
// experiment and one row of its document: full per-request latency and
// hop distributions, the observability the aggregate BaselineRow cannot
// express. Every field but EventsPerSec is a simulated quantity,
// deterministic for a fixed config.
type PerfRow struct {
	Protocol string   `json:"protocol"`
	N        int      `json:"n"`
	Workload string   `json:"workload"`
	Requests int64    `json:"requests"`
	Makespan sim.Time `json:"makespan"`
	// Events is the simulator event count the cell consumed.
	Events int64 `json:"events"`
	// EventsPerSec is the cell's wall-clock simulator throughput: the one
	// field that differs between two runs of the same commit. It measures
	// the host, not the simulation; the golden document holds 0 here.
	EventsPerSec float64 `json:"events_per_sec"`
	// Latency is the per-request queuing-latency distribution
	// (simulated time units), Hops the queue/find hop-count
	// distribution.
	Latency stats.Dist `json:"latency"`
	Hops    stats.Dist `json:"hops"`
}

// eventsPerSec is a cell's wall-clock simulator throughput.
func eventsPerSec(events, wallNanos int64) float64 {
	if wallNanos <= 0 {
		return 0
	}
	return float64(events) / (float64(wallNanos) * 1e-9)
}

// gridPos locates one cell of a closed-loop grid: its outer-axis index
// and its workload's name.
type gridPos struct {
	outer    int
	workload string
}

// closedLoopCells builds the (outer axis × workload × protocol) grid the
// perf and churn experiments share: outer-major, then workload, then
// baselineProtocols order. base(i) supplies what outer index i fixes
// (label, graph, tree, fault plan); the builder adds the workload, its
// delay model, the seed DeriveSeed(seed, i·len(workloads)+j) and a
// private DistRecorder. Unlike engine.Grid, every cell gets its own
// Instance: recorders accumulate per-request state, so sharing one
// across the concurrently swept protocol column would race. pos is
// index-aligned with cells, so row assembly never re-derives the grid
// nesting positionally.
func closedLoopCells(outer, perNode int, seed int64, workloads []PerfWorkload, base func(i int) engine.Instance) (cells []engine.Cell, pos []gridPos, err error) {
	protocols := baselineProtocols()
	for i := 0; i < outer; i++ {
		inst := base(i)
		for j, w := range workloads {
			load, err := engine.NewClosedLoop(perNode).Think(w.Think).Build()
			if err != nil {
				return nil, nil, err
			}
			for _, p := range protocols {
				c := inst
				c.Label += "/" + w.Name
				c.Workload, c.Latency = load, w.Latency
				c.Seed = engine.DeriveSeed(seed, i*len(workloads)+j)
				c.Recorder = stats.NewDistRecorder()
				cells = append(cells, engine.Cell{Protocol: p, Instance: c})
				pos = append(pos, gridPos{outer: i, workload: w.Name})
			}
		}
	}
	return cells, pos, nil
}

// timedProtocol decorates a Protocol with wall-clock measurement into a
// caller-owned slot. Timing stays out of engine.Cost so Sweep's outcome
// slices remain byte-identical across runs and worker counts; only the
// perf experiment, which reports throughput, pays for the wrapper.
type timedProtocol struct {
	p    engine.Protocol
	wall *int64
}

func (t timedProtocol) Name() string { return t.p.Name() }

func (t timedProtocol) Run(inst engine.Instance) (engine.Cost, error) {
	start := time.Now() //arrow:allow determinism report-only wall clock: events_per_sec is informational and never gated
	cost, err := t.p.Run(inst)
	*t.wall = time.Since(start).Nanoseconds() //arrow:allow determinism report-only wall clock: events_per_sec is informational and never gated
	return cost, err
}

// PerfExperiment runs the perf grid — size × workload × protocol — as
// one parallel sweep (workers 0 = GOMAXPROCS; results are identical for
// every worker count) and returns the arrowbench/perf document, pinned
// as testdata/perf_golden.json. Histogram memory is fixed per cell, so
// the experiment runs at the paper's 100k-requests-per-node scale
// without per-request storage.
func PerfExperiment(cfg PerfConfig, workers int) (Document[PerfConfig, PerfRow], error) {
	doc := Document[PerfConfig, PerfRow]{Schema: PerfSchema, Config: cfg}
	cells, pos, err := closedLoopCells(len(cfg.Sizes), cfg.PerNode, cfg.Seed, PerfWorkloads(), func(i int) engine.Instance {
		n := cfg.Sizes[i]
		return engine.Instance{Label: fmt.Sprintf("n=%d", n), Graph: graph.Complete(n), Tree: tree.BalancedBinary(n)}
	})
	if err != nil {
		return doc, err
	}
	walls := make([]int64, len(cells))
	for i := range cells {
		cells[i].Protocol = timedProtocol{p: cells[i].Protocol, wall: &walls[i]}
	}
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return doc, fmt.Errorf("analysis: perf sweep: %w", err)
	}
	doc.Rows = make([]PerfRow, len(outs))
	for i, c := range engine.Costs(outs) {
		doc.Rows[i] = PerfRow{
			Protocol:     c.Protocol,
			N:            c.N,
			Workload:     pos[i].workload,
			Requests:     c.Requests,
			Makespan:     c.Makespan,
			Events:       c.Events,
			EventsPerSec: eventsPerSec(c.Events, walls[i]),
			Latency:      c.Latency,
			Hops:         c.Hops,
		}
	}
	return doc, nil
}

// PerfLatencyTable formats the per-request queuing-latency percentiles
// plus the cell's simulator throughput (million events per wall-clock
// second — the one non-deterministic column).
func PerfLatencyTable(rows []PerfRow) *Table {
	t := &Table{
		Title: "Perf — per-request queuing latency distribution (closed loop)",
		Headers: []string{"protocol", "n", "workload", "reqs",
			"p50", "p90", "p99", "p999", "max", "mean", "std", "Mev/s"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.N, r.Workload, r.Requests,
			r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999,
			r.Latency.Max, r.Latency.Mean, r.Latency.Std,
			r.EventsPerSec/1e6)
	}
	return t
}

// PerfHopsTable formats the per-request hop-count percentiles.
func PerfHopsTable(rows []PerfRow) *Table {
	t := &Table{
		Title: "Perf — per-request queue/find hop distribution (closed loop)",
		Headers: []string{"protocol", "n", "workload", "reqs",
			"p50", "p90", "p99", "p999", "max", "mean"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.N, r.Workload, r.Requests,
			r.Hops.P50, r.Hops.P90, r.Hops.P99, r.Hops.P999,
			r.Hops.Max, r.Hops.Mean)
	}
	return t
}

// PerfSchema versions the machine-readable perf document. Bump it on
// any field rename or semantic change. v2 added the deterministic
// per-cell event count and the wall-clock events/sec throughput.
const PerfSchema = "arrowbench/perf/v2"

// PerfConfig is the perf experiment's parameters, recorded inside its
// document.
type PerfConfig struct {
	Sizes   []int `json:"sizes"`
	PerNode int   `json:"per_node"`
	Seed    int64 `json:"seed"`
}
