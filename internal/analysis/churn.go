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

// ChurnExperiment sweeps fault rate × workload × protocol on a complete
// graph with a balanced binary spanning tree: node churn at each rate
// (an identical failure trace for every protocol), arrow recovering by
// message-driven self-stabilizing repair, NTA/Ivy by re-issue, and
// centralized by coordinator failover. Cells fan across the worker pool;
// the arrowbench/churn document it returns is byte-identical for every
// worker count.
func ChurnExperiment(cfg ChurnConfig, workers int) (Document[ChurnConfig, ChurnRow], error) {
	doc := Document[ChurnConfig, ChurnRow]{Schema: ChurnSchema, Config: cfg}
	g := graph.Complete(cfg.N)
	t := tree.BalancedBinary(cfg.N)
	cells, pos, err := closedLoopCells(len(cfg.Rates), cfg.PerNode, cfg.Seed, ChurnWorkloads(), func(i int) engine.Instance {
		return engine.Instance{
			Label:  fmt.Sprintf("rate=%g", cfg.Rates[i]),
			Graph:  g,
			Tree:   t,
			Faults: churnPlan(cfg.N, cfg.PerNode, cfg.Rates[i], sim.DeriveSeed(cfg.Seed, i)),
		}
	})
	if err != nil {
		return doc, err
	}
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return doc, fmt.Errorf("analysis: churn sweep: %w", err)
	}
	doc.Rows = make([]ChurnRow, len(outs))
	for i, c := range engine.Costs(outs) {
		doc.Rows[i] = ChurnRow{
			Protocol:     c.Protocol,
			N:            cfg.N,
			PerNode:      cfg.PerNode,
			Workload:     pos[i].workload,
			Rate:         cfg.Rates[pos[i].outer],
			Requests:     c.Requests,
			Dropped:      c.Dropped,
			Deferred:     c.Deferred,
			Reissued:     c.Reissued,
			Repairs:      c.RepairEpisodes,
			RepairMs:     c.RepairMessages,
			RepairTime:   int64(c.RepairTime),
			Availability: c.Availability,
			Makespan:     c.Makespan,
			Latency:      c.Latency,
		}
	}
	return doc, nil
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

// ChurnConfig is the churn experiment's parameters, recorded inside its
// document. Every row field is deterministic, so the document is
// byte-identical across runs and worker counts.
type ChurnConfig struct {
	N       int       `json:"n"`
	PerNode int       `json:"per_node"`
	Rates   []float64 `json:"rates"`
	Seed    int64     `json:"seed"`
}
