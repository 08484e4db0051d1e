package analysis

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// ShardConfig drives the multi-object sharding experiment: every
// protocol serving k objects on one shared n-node network, across an
// objects × skew grid. The network has unit per-link capacity
// (LinkTxTime 1) unless overridden, so the k instances genuinely
// contend — cross-object interference shows up in the latency
// distributions instead of superposing for free.
type ShardConfig struct {
	// N is the shared network's node count; 0 defaults to 32.
	N int `json:"n"`
	// PerNode is the closed-loop requests per node in every cell.
	PerNode int `json:"per_node"`
	// Objects are the object counts of the grid, each at least 2 (one
	// object is the classic single-object loop, not a shard cell); nil
	// defaults to 16, 128, 1024.
	Objects []int `json:"objects"`
	// Skews are the Zipf popularity exponents of the grid; nil defaults
	// to 0 (uniform) and 1.1 (the classic hot-object regime).
	Skews []float64 `json:"skews"`
	// Seed derives each cell's simulation seed.
	Seed int64 `json:"seed"`
	// LinkTxTime is the shared network's per-link serialization time;
	// 0 defaults to 1 (pass a negative value for the infinite-capacity
	// model, which resolves to 0).
	LinkTxTime sim.Time `json:"link_tx_time"`
}

// resolved returns the config with its defaults filled in: what the
// experiment runs and what its document records.
func (c ShardConfig) resolved() ShardConfig {
	if c.N <= 0 {
		c.N = 32
	}
	if len(c.Objects) == 0 {
		c.Objects = []int{16, 128, 1024}
	}
	if len(c.Skews) == 0 {
		c.Skews = []float64{0, 1.1}
	}
	switch {
	case c.LinkTxTime < 0:
		c.LinkTxTime = 0
	case c.LinkTxTime == 0:
		c.LinkTxTime = 1
	}
	return c
}

// ShardRow is one protocol × objects × skew cell and one row of the
// shard document: the aggregate cost of the combined traffic, its
// latency and hop distributions, and the fairness summary across the
// objects. Every field is a simulated quantity — deterministic for a
// fixed config, no wall-clock anywhere.
type ShardRow struct {
	Protocol     string          `json:"protocol"`
	N            int             `json:"n"`
	Objects      int             `json:"objects"`
	Skew         float64         `json:"skew"`
	PerNode      int             `json:"per_node"`
	Requests     int64           `json:"requests"`
	QueueHops    int64           `json:"queue_hops"`
	ReplyHops    int64           `json:"reply_hops"`
	LocalComps   int64           `json:"local_completions"`
	TotalLatency int64           `json:"total_latency"`
	Makespan     sim.Time        `json:"makespan"`
	Events       int64           `json:"events"`
	Latency      stats.Dist      `json:"latency"`
	Hops         stats.Dist      `json:"hops"`
	Fairness     engine.Fairness `json:"fairness"`
}

// shardProtocols returns the experiment's protocol columns in the order
// the shard document has always listed them (baselineProtocols puts NTA
// before centralized).
func shardProtocols() []engine.Protocol {
	return []engine.Protocol{
		engine.Arrow{}, engine.Centralized{}, engine.NTA{}, engine.Ivy{},
	}
}

// ShardExperiment runs the sharding grid as one engine.Sweep across the
// worker pool: objects, then skew, then protocol, every cell with its
// own seed and recorder. Outcomes come back in cell order, so the
// arrowbench/shard document it returns is byte-identical at any pool
// size. Graph and Tree only tell the adapters the node count: a
// multi-object cell runs on the implicit complete metric (see
// engine.Cost.PerObject).
func ShardExperiment(cfg ShardConfig, workers int) (Document[ShardConfig, ShardRow], error) {
	cfg = cfg.resolved()
	doc := Document[ShardConfig, ShardRow]{Schema: ShardSchema, Config: cfg}
	if cfg.PerNode < 1 {
		return doc, fmt.Errorf("analysis: shard experiment needs PerNode >= 1, got %d", cfg.PerNode)
	}
	g := graph.Complete(cfg.N)
	t := tree.BalancedBinary(cfg.N)
	var cells []engine.Cell
	for _, k := range cfg.Objects {
		for _, s := range cfg.Skews {
			load, err := engine.NewClosedLoop(cfg.PerNode).Objects(k).Zipf(s).Build()
			if err != nil {
				return doc, fmt.Errorf("analysis: shard k=%d s=%g: %w", k, s, err)
			}
			for _, p := range shardProtocols() {
				cells = append(cells, engine.Cell{
					Protocol: p,
					Instance: engine.Instance{
						Label:      fmt.Sprintf("n=%d/k=%d/s=%g", cfg.N, k, s),
						Graph:      g,
						Tree:       t,
						Workload:   load,
						Seed:       engine.DeriveSeed(cfg.Seed, len(cells)),
						LinkTxTime: cfg.LinkTxTime,
						Recorder:   stats.NewDistRecorder(),
					},
				})
			}
		}
	}
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return doc, fmt.Errorf("analysis: shard sweep: %w", err)
	}
	doc.Rows = make([]ShardRow, len(outs))
	for i, c := range engine.Costs(outs) {
		w := cells[i].Instance.Workload
		doc.Rows[i] = ShardRow{
			Protocol:     c.Protocol,
			N:            cfg.N,
			Objects:      w.Objects,
			Skew:         w.Skew,
			PerNode:      cfg.PerNode,
			Requests:     c.Requests,
			QueueHops:    c.QueueHops,
			ReplyHops:    c.ReplyHops,
			LocalComps:   c.LocalCompletions,
			TotalLatency: c.TotalLatency,
			Makespan:     c.Makespan,
			Events:       c.Events,
			Latency:      c.Latency,
			Hops:         c.Hops,
			Fairness:     c.Fairness,
		}
	}
	return doc, nil
}

// ShardTable formats the shard rows: aggregate traffic on the left,
// the fairness spread across objects on the right.
func ShardTable(rows []ShardRow) *Table {
	t := &Table{
		Title: "Multi-object sharding — shared network, per-link capacity 1",
		Headers: []string{"protocol", "k", "skew", "reqs", "qhops/req",
			"lat p50", "lat p99", "makespan", "req min/max", "avglat max", "avglat p99"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.Objects, r.Skew, r.Requests, perRequest(r.QueueHops, r.Requests),
			r.Latency.P50, r.Latency.P99, int64(r.Makespan),
			fmt.Sprintf("%d/%d", r.Fairness.MinRequests, r.Fairness.MaxRequests),
			r.Fairness.MaxAvgLatency, r.Fairness.P99AvgLatency)
	}
	return t
}

// ShardSchema versions the machine-readable shard document (see
// PerfSchema for the bump discipline).
const ShardSchema = "arrowbench/shard/v1"
