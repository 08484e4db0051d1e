package analysis

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// baselineProtocols is the fixed protocol set of the baselines grid, in
// table order.
func baselineProtocols() []engine.Protocol {
	return []engine.Protocol{engine.Arrow{}, engine.NTA{}, engine.Centralized{}}
}

// BaselineRow is one protocol × size cell of the closed-loop baselines
// experiment: all three queuing protocols under the paper's Section 5
// regime (every node keeps one request in flight), on a complete graph
// with a balanced binary spanning tree for arrow. Queue and reply
// traffic are reported in separate columns: the paper charges only queue
// messages to the protocol, and folding the reply leg into one protocol
// but not another would skew the comparison. There is no ivy row: for a
// find Ivy makes NTA's pointer update, so its row was the nta row (see
// shard.Reversal).
type BaselineRow struct {
	Protocol     string
	N            int
	PerNode      int
	Requests     int64
	Makespan     sim.Time
	AvgLatency   float64
	AvgQueueHops float64
	AvgReplyHops float64
	// LocalFrac is the fraction of requests that found their predecessor
	// locally (zero queue messages).
	LocalFrac float64
}

// BaselinesClosedLoopGrid builds the experiment cells: for each n, each
// of the given protocols (none = all of baselineProtocols) on an
// identical closed-loop instance. Cells are in n-major order, protocols
// in argument order per n.
func BaselinesClosedLoopGrid(ns []int, perNode int, seed int64, protocols ...engine.Protocol) ([]engine.Cell, error) {
	if len(protocols) == 0 {
		protocols = baselineProtocols()
	}
	w, err := engine.NewClosedLoop(perNode).Build()
	if err != nil {
		return nil, err
	}
	instances := make([]engine.Instance, 0, len(ns))
	for i, n := range ns {
		instances = append(instances, engine.Instance{
			Label:    fmt.Sprintf("n=%d", n),
			Graph:    graph.Complete(n),
			Tree:     tree.BalancedBinary(n),
			Root:     0,
			Workload: w,
			Seed:     engine.DeriveSeed(seed, i),
		})
	}
	return engine.Grid(instances, protocols...), nil
}

// BaselinesClosedLoop runs the closed-loop baselines grid as one
// parallel sweep (workers 0 = GOMAXPROCS; results are identical for
// every worker count) and flattens the outcomes to rows.
func BaselinesClosedLoop(ns []int, perNode int, seed int64, workers int, protocols ...engine.Protocol) ([]BaselineRow, error) {
	cells, err := BaselinesClosedLoopGrid(ns, perNode, seed, protocols...)
	if err != nil {
		return nil, err
	}
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, fmt.Errorf("analysis: baselines sweep: %w", err)
	}
	rows := make([]BaselineRow, 0, len(outs))
	for _, c := range engine.Costs(outs) {
		row := BaselineRow{
			Protocol:     c.Protocol,
			N:            c.N,
			PerNode:      perNode,
			Requests:     c.Requests,
			Makespan:     c.Makespan,
			AvgLatency:   c.AvgLatency(),
			AvgQueueHops: c.AvgQueueHops(),
		}
		if c.Requests > 0 {
			row.AvgReplyHops = float64(c.ReplyHops) / float64(c.Requests)
			row.LocalFrac = float64(c.LocalCompletions) / float64(c.Requests)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// BaselinesClosedLoopTable formats the closed-loop baselines comparison.
func BaselinesClosedLoopTable(rows []BaselineRow) *Table {
	t := &Table{
		Title: "Baselines — closed loop (Section 5 regime), all protocols",
		Headers: []string{"protocol", "n", "reqs/node", "makespan", "avg latency",
			"queue hops/op", "reply hops/op", "local frac"},
	}
	for _, r := range rows {
		t.AddRow(r.Protocol, r.N, r.PerNode, r.Makespan, r.AvgLatency,
			r.AvgQueueHops, r.AvgReplyHops, r.LocalFrac)
	}
	return t
}

// Fig10Table formats Figure 10 from closed-loop baseline rows: per n,
// the arrow row beside the centralized row that follows it. Arrow's
// makespan stays nearly flat as n grows; centralized's grows linearly.
func Fig10Table(rows []BaselineRow) *Table {
	t := &Table{
		Title:   "Figure 10 — total latency (makespan), arrow vs centralized",
		Headers: []string{"n", "reqs/node", "arrow makespan", "centralized makespan", "arrow avg lat", "central avg lat"},
	}
	var ar BaselineRow
	for _, r := range rows {
		switch r.Protocol {
		case engine.Arrow{}.Name():
			ar = r
		case engine.Centralized{}.Name():
			t.AddRow(r.N, r.PerNode, ar.Makespan, r.Makespan, ar.AvgLatency, r.AvgLatency)
		}
	}
	return t
}

// Fig11Table formats Figure 11, arrow's hop counts, from the arrow rows
// of closed-loop baseline rows.
func Fig11Table(rows []BaselineRow) *Table {
	t := &Table{
		Title:   "Figure 11 — avg interprocessor messages per queuing op (arrow)",
		Headers: []string{"n", "avg queue hops/op", "local completions", "reply hops/op"},
	}
	for _, r := range rows {
		if r.Protocol == (engine.Arrow{}).Name() {
			t.AddRow(r.N, r.AvgQueueHops, r.LocalFrac, r.AvgReplyHops)
		}
	}
	return t
}

// BaselinesStaticTable runs every baseline protocol on one shared static
// Poisson workload (complete graph, n = 48) as one sweep and formats the
// costs against the optimal-cost bound.
func BaselinesStaticTable(seed int64, workers int) (*Table, error) {
	const n = 48
	g := graph.Complete(n)
	set := workload.Poisson(n, 1.0, 200, seed)
	if len(set) == 0 {
		return nil, fmt.Errorf("analysis: baselines: empty workload")
	}
	inst := engine.Instance{
		Label:    fmt.Sprintf("complete%d", n),
		Graph:    g,
		Tree:     tree.BalancedBinary(n),
		Root:     0,
		Workload: engine.NewStatic(set).MustBuild(),
		Seed:     seed,
	}
	outs := engine.Sweep(engine.Grid([]engine.Instance{inst}, baselineProtocols()...), workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, err
	}
	den := opt.Compute(g, 0, set).Best()
	t := &Table{
		Title:   fmt.Sprintf("Baselines — complete graph n=%d, |R|=%d Poisson requests (static)", n, len(set)),
		Headers: []string{"protocol", "total latency", "messages", "makespan", "ratio vs opt bound"},
	}
	for _, c := range engine.Costs(outs) {
		t.AddRow(c.Protocol, c.TotalLatency, c.QueueHops, c.Makespan, opt.Ratio(c.TotalLatency, den))
	}
	return t, nil
}
