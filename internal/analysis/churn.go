package analysis

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// ChurnRow is one protocol × workload × fault-rate cell of the churn
// experiment: the degraded-mode regime the static tables cannot express.
// Every field is deterministic for a fixed config — the JSON document is
// byte-identical across runs and worker counts.
type ChurnRow struct {
	Protocol string  `json:"protocol"`
	N        int     `json:"n"`
	PerNode  int     `json:"per_node"`
	Workload string  `json:"workload"`
	Rate     float64 `json:"rate"`
	Requests int64   `json:"requests"`
	Dropped  int64   `json:"dropped"`
	Deferred int64   `json:"deferred"`
	Reissued int64   `json:"reissued"`
	Repairs  int64   `json:"repair_episodes"`
	RepairMs int64   `json:"repair_messages"`
	// RepairTime is the simulated time spent in self-stabilizing repair
	// (arrow only) — the recovery-time column.
	RepairTime int64 `json:"repair_time"`
	// Availability is the clean-completion fraction 1 − affected/requests.
	Availability float64  `json:"availability"`
	Makespan     sim.Time `json:"makespan"`
	// Latency is the per-request queuing-latency distribution; its tail
	// (p99) carries the outage cost of lost-and-reissued requests.
	Latency stats.Dist `json:"latency"`
}

// ChurnWorkloads is the workload axis of the churn experiment: the
// saturated Section 5 regime and a think-time variant that drains queue
// pressure between faults.
func ChurnWorkloads() []PerfWorkload {
	return []PerfWorkload{
		{Name: "saturated"},
		{Name: "think8", Think: 8},
	}
}

// churnPlan builds the deterministic node-churn schedule for one fault
// rate: every node (root and coordinator included — centralized pays its
// failover) suffers on average `rate` outages inside the warm window.
// The same plan backs all protocol cells of the rate, so the protocols
// face an identical failure trace.
func churnPlan(n, perNode int, rate float64, seed int64) *sim.FaultPlan {
	if rate <= 0 {
		return nil
	}
	horizon := sim.Time(4 * perNode)
	start := horizon / 8
	meanDown := sim.Time(perNode/10 + 10)
	return &sim.FaultPlan{Events: sim.NodeChurn(n, nil, rate, meanDown, start, horizon, seed)}
}

// churnCells builds the churn grid in rate-major, then workload, then
// protocol order, each cell with a private recorder (recorders
// accumulate state; see engine.Grid).
func churnCells(n, perNode int, rates []float64, seed int64) (cells []engine.Cell, rows []ChurnRow, err error) {
	g := graph.Complete(n)
	t := tree.BalancedBinary(n)
	workloads := ChurnWorkloads()
	protocols := baselineProtocols()
	for i, rate := range rates {
		plan := churnPlan(n, perNode, rate, sim.DeriveSeed(seed, i))
		for j, w := range workloads {
			load, err := engine.NewClosedLoop(perNode).Think(w.Think).Build()
			if err != nil {
				return nil, nil, err
			}
			for _, p := range protocols {
				cells = append(cells, engine.Cell{
					Protocol: p,
					Instance: engine.Instance{
						Label:    fmt.Sprintf("rate=%g/%s", rate, w.Name),
						Graph:    g,
						Tree:     t,
						Root:     0,
						Workload: load,
						Seed:     engine.DeriveSeed(seed, i*len(workloads)+j),
						Faults:   plan,
						Recorder: stats.NewDistRecorder(),
					},
				})
				rows = append(rows, ChurnRow{
					N: n, PerNode: perNode, Workload: w.Name, Rate: rate,
				})
			}
		}
	}
	return cells, rows, nil
}

// ChurnExperiment sweeps fault rate × workload × protocol on a complete
// graph with a balanced binary spanning tree: node churn at each rate
// (an identical failure trace for every protocol), arrow recovering by
// message-driven self-stabilizing repair, NTA/Ivy by re-issue, and
// centralized by coordinator failover. Cells fan across the worker pool;
// results are byte-identical for every worker count.
func ChurnExperiment(n, perNode int, rates []float64, seed int64, workers int) ([]ChurnRow, error) {
	cells, rows, err := churnCells(n, perNode, rates, seed)
	if err != nil {
		return nil, err
	}
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, fmt.Errorf("analysis: churn sweep: %w", err)
	}
	for i, c := range engine.Costs(outs) {
		rows[i].Protocol = c.Protocol
		rows[i].Requests = c.Requests
		rows[i].Dropped = c.Dropped
		rows[i].Deferred = c.Deferred
		rows[i].Reissued = c.Reissued
		rows[i].Repairs = c.RepairEpisodes
		rows[i].RepairMs = c.RepairMessages
		rows[i].RepairTime = int64(c.RepairTime)
		rows[i].Availability = c.Availability
		rows[i].Makespan = c.Makespan
		rows[i].Latency = c.Latency
	}
	return rows, nil
}

// ChurnAvailabilityTable formats availability and recovery cost per
// protocol and fault rate.
func ChurnAvailabilityTable(rows []ChurnRow) *Table {
	t := &Table{
		Title: "Churn — availability and recovery vs fault rate (node churn, closed loop)",
		Headers: []string{"protocol", "workload", "rate", "reqs", "dropped", "reissued",
			"repairs", "repair msgs", "repair time", "availability", "makespan"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Workload, r.Rate, r.Requests, r.Dropped, r.Reissued,
			r.Repairs, r.RepairMs, r.RepairTime, r.Availability, r.Makespan)
	}
	return t
}

// ChurnLatencyTable formats the latency tail per protocol and fault
// rate: p99 carries the outage cost of lost-and-reissued requests.
func ChurnLatencyTable(rows []ChurnRow) *Table {
	t := &Table{
		Title: "Churn — per-request queuing latency under faults",
		Headers: []string{"protocol", "workload", "rate", "reqs",
			"p50", "p90", "p99", "max", "mean"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Workload, r.Rate, r.Requests,
			r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max, r.Latency.Mean)
	}
	return t
}

// ChurnSchema versions the machine-readable churn document; bump it on
// any field rename or semantic change.
const ChurnSchema = "arrowbench/churn/v1"

// ChurnConfig records the experiment parameters inside the document.
type ChurnConfig struct {
	N       int       `json:"n"`
	PerNode int       `json:"per_node"`
	Rates   []float64 `json:"rates"`
	Seed    int64     `json:"seed"`
}

// ChurnDoc is the stable schema of `arrowbench -exp churn -json`. Every
// row field is deterministic, so the document is byte-identical across
// runs and worker counts.
type ChurnDoc struct {
	Schema string      `json:"schema"`
	Config ChurnConfig `json:"config"`
	Rows   []ChurnRow  `json:"rows"`
}

// ChurnDocument assembles the machine-readable churn document.
func ChurnDocument(cfg ChurnConfig, rows []ChurnRow) ChurnDoc {
	return ChurnDoc{Schema: ChurnSchema, Config: cfg, Rows: rows}
}
