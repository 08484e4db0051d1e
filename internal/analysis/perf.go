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

// perfCells builds the perf experiment cells plus each cell's workload
// name (the names slice is index-aligned with the cells, so row
// assembly never re-derives the grid nesting positionally). Cells are
// size-major, then workload, then protocol. Unlike engine.Grid, every
// cell gets its own Instance with a private DistRecorder — recorders
// accumulate per-request state, so sharing one across the concurrently
// swept protocol column would race.
func perfCells(ns []int, perNode int, seed int64) (cells []engine.Cell, names []string, err error) {
	workloads := PerfWorkloads()
	protocols := baselineProtocols()
	cells = make([]engine.Cell, 0, len(ns)*len(workloads)*len(protocols))
	names = make([]string, 0, cap(cells))
	for i, n := range ns {
		g := graph.Complete(n)
		t := tree.BalancedBinary(n)
		for j, w := range workloads {
			load, err := engine.NewClosedLoop(perNode).Think(w.Think).Build()
			if err != nil {
				return nil, nil, err
			}
			for _, p := range protocols {
				cells = append(cells, engine.Cell{
					Protocol: p,
					Instance: engine.Instance{
						Label:    fmt.Sprintf("n=%d/%s", n, w.Name),
						Graph:    g,
						Tree:     t,
						Root:     0,
						Workload: load,
						Latency:  w.Latency,
						Seed:     engine.DeriveSeed(seed, i*len(workloads)+j),
						Recorder: stats.NewDistRecorder(),
					},
				})
				names = append(names, w.Name)
			}
		}
	}
	return cells, names, nil
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

// PerfExperiment runs the perf grid as one parallel sweep (workers 0 =
// GOMAXPROCS; results are identical for every worker count) and
// flattens the outcomes to rows. Histogram memory is fixed per cell, so
// the experiment runs at the paper's 100k-requests-per-node scale
// without per-request storage.
func PerfExperiment(ns []int, perNode int, seed int64, workers int) ([]PerfRow, error) {
	cells, names, err := perfCells(ns, perNode, seed)
	if err != nil {
		return nil, err
	}
	walls := make([]int64, len(cells))
	for i := range cells {
		cells[i].Protocol = timedProtocol{p: cells[i].Protocol, wall: &walls[i]}
	}
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, fmt.Errorf("analysis: perf sweep: %w", err)
	}
	rows := make([]PerfRow, len(outs))
	for i, c := range engine.Costs(outs) {
		rows[i] = PerfRow{
			Protocol:     c.Protocol,
			N:            c.N,
			Workload:     names[i],
			Requests:     c.Requests,
			Makespan:     c.Makespan,
			Events:       c.Events,
			EventsPerSec: eventsPerSec(c.Events, walls[i]),
			Latency:      c.Latency,
			Hops:         c.Hops,
		}
	}
	return rows, nil
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

// PerfConfig records the experiment parameters inside the document.
type PerfConfig struct {
	Sizes   []int `json:"sizes"`
	PerNode int   `json:"per_node"`
	Seed    int64 `json:"seed"`
}

// PerfDoc is the stable schema of `arrowbench -exp perf -json`; the
// repo pins one as testdata/perf_golden.json (TestDocumentsGolden).
type PerfDoc struct {
	Schema string     `json:"schema"`
	Config PerfConfig `json:"config"`
	Rows   []PerfRow  `json:"rows"`
}

// PerfDocument assembles the machine-readable perf document.
func PerfDocument(cfg PerfConfig, rows []PerfRow) PerfDoc {
	return PerfDoc{Schema: PerfSchema, Config: cfg, Rows: rows}
}
