package analysis

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TreeChoiceRow compares spanning-tree constructions for the same
// workload — the design-choice ablation discussed by Demmer–Herlihy
// (MST) and Peleg–Reshef (minimum communication spanning trees).
type TreeChoiceRow struct {
	Tree      string
	S         float64
	D         int64
	CostArrow int64
	AvgHops   float64
	Ratio     float64 // vs a shared optimal lower/upper bound
}

// TreeChoiceExperiment runs the same workload on a complete graph under
// several spanning trees; the per-tree cells run as one sweep across the
// worker pool (0 = GOMAXPROCS).
func TreeChoiceExperiment(n, requests int, seed int64, workers int) ([]TreeChoiceRow, error) {
	g := graph.Complete(n)
	set := workload.Poisson(n, 0.5, sim.Time(4*requests), seed)
	if len(set) == 0 {
		set = workload.OneShot(n, min(requests, n), seed)
	}
	bounds := opt.Compute(g, 0, set, opt.DistOfGraph(g))
	den := bounds.Upper
	if bounds.Exact {
		den = bounds.Lower
	}
	kinds := []TreeKind{TreeBalancedBinary, TreeMST, TreeBFS, TreeStar, TreePath}
	trees := make([]*tree.Tree, len(kinds))
	instances := make([]engine.Instance, len(kinds))
	for i, kind := range kinds {
		t, err := BuildTree(kind, g)
		if err != nil {
			return nil, err
		}
		trees[i] = t
		instances[i] = engine.Instance{
			Label:    kind.String(),
			Graph:    g,
			Tree:     t,
			Root:     t.Root(),
			Workload: engine.NewStatic(set).MustBuild(),
			Seed:     seed,
		}
	}
	outs := engine.Sweep(engine.Grid(instances, engine.Arrow{}), workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, fmt.Errorf("analysis: tree ablation: %w", err)
	}
	rows := make([]TreeChoiceRow, 0, len(kinds))
	for i, kind := range kinds {
		cost := outs[i].Cost
		rows = append(rows, TreeChoiceRow{
			Tree:      kind.String(),
			S:         trees[i].EdgeStretch(g),
			D:         trees[i].Diameter(),
			CostArrow: cost.TotalLatency,
			AvgHops:   cost.AvgQueueHops(),
			Ratio:     opt.Ratio(cost.TotalLatency, den),
		})
	}
	return rows, nil
}

// TreeChoiceTable formats the ablation.
func TreeChoiceTable(rows []TreeChoiceRow) *Table {
	t := &Table{
		Title:   "Ablation — spanning tree choice (same workload, complete graph)",
		Headers: []string{"tree", "s", "D", "cost(arrow)", "avg hops", "ratio"},
	}
	for _, r := range rows {
		t.AddRow(r.Tree, r.S, r.D, r.CostArrow, r.AvgHops, r.Ratio)
	}
	return t
}

// AsyncRow compares delay models on the same instance (Section 3.8:
// the O(s log D) bound survives asynchrony).
type AsyncRow struct {
	Model     string
	Scale     int64
	CostArrow int64
	// NormalizedCost divides by the model scale, making costs comparable
	// to the synchronous unit-latency analysis.
	NormalizedCost float64
	Ratio          float64
}

// AsyncExperiment runs the same workload under synchronous and
// asynchronous delay models, one sweep across the worker pool.
func AsyncExperiment(n, requests int, scale int64, seed int64, workers int) ([]AsyncRow, error) {
	g := graph.Complete(n)
	t := tree.BalancedBinary(n)
	set := workload.Bursty(n, requests/2, 2, sim.Time(8*scale), seed)
	bounds := opt.Compute(g, 0, set, opt.DistOfGraph(g))
	den := bounds.Upper
	if bounds.Exact {
		den = bounds.Lower
	}
	models := []sim.LatencyModel{
		sim.SynchronousScaled(scale),
		sim.AsyncUniform(scale),
		sim.AsyncBimodal(scale, 0.1),
	}
	// Scale request times to the model's time base so concurrency
	// structure is preserved.
	scaled := make([]queuing.Request, len(set))
	for i, r := range set {
		scaled[i] = queuing.Request{Node: r.Node, Time: r.Time * scale}
	}
	sset := queuing.NewSet(scaled)
	instances := make([]engine.Instance, len(models))
	for i, m := range models {
		instances[i] = engine.Instance{
			Label:    m.Name(),
			Graph:    g,
			Tree:     t,
			Root:     0,
			Workload: engine.NewStatic(sset).MustBuild(),
			Latency:  m,
			Seed:     seed,
		}
	}
	outs := engine.Sweep(engine.Grid(instances, engine.Arrow{}), workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, fmt.Errorf("analysis: async ablation: %w", err)
	}
	rows := make([]AsyncRow, 0, len(models))
	for i, m := range models {
		cost := outs[i].Cost
		norm := float64(cost.TotalLatency) / float64(scale)
		rows = append(rows, AsyncRow{
			Model:          m.Name(),
			Scale:          scale,
			CostArrow:      cost.TotalLatency,
			NormalizedCost: norm,
			Ratio:          norm / float64(max(den, 1)),
		})
	}
	return rows, nil
}

// AsyncTable formats the asynchronous-model comparison.
func AsyncTable(rows []AsyncRow) *Table {
	t := &Table{
		Title:   "Section 3.8 — synchronous vs asynchronous delay models",
		Headers: []string{"model", "scale", "cost(arrow)", "normalized", "ratio vs opt"},
	}
	for _, r := range rows {
		t.AddRow(r.Model, r.Scale, r.CostArrow, r.NormalizedCost, r.Ratio)
	}
	return t
}

// ArbitrationRow compares simultaneous-message arbitration policies; the
// analysis claims costs are bounded "irrespective of the order in which
// the queue() messages are locally processed".
type ArbitrationRow struct {
	Arbitration string
	CostArrow   int64
	TotalHops   int64
}

// ArbitrationExperiment runs one high-contention instance under all
// arbitration policies, as one sweep across the worker pool.
func ArbitrationExperiment(n int, seed int64, workers int) ([]ArbitrationRow, error) {
	t := tree.BalancedBinary(n)
	set := workload.OneShot(n, n/2, seed)
	arbs := []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom}
	instances := make([]engine.Instance, len(arbs))
	for i, a := range arbs {
		instances[i] = engine.Instance{
			Label:       a.String(),
			Tree:        t,
			Root:        0,
			Workload:    engine.NewStatic(set).MustBuild(),
			Arbitration: a,
			Seed:        seed,
		}
	}
	outs := engine.Sweep(engine.Grid(instances, engine.Arrow{}), workers)
	if err := engine.FirstError(outs); err != nil {
		return nil, err
	}
	rows := make([]ArbitrationRow, 0, len(arbs))
	for i, a := range arbs {
		rows = append(rows, ArbitrationRow{
			Arbitration: a.String(),
			CostArrow:   outs[i].Cost.TotalLatency,
			TotalHops:   outs[i].Cost.QueueHops,
		})
	}
	return rows, nil
}

// ArbitrationTable formats the arbitration ablation.
func ArbitrationTable(rows []ArbitrationRow) *Table {
	t := &Table{
		Title:   "Ablation — local arbitration of simultaneous messages",
		Headers: []string{"arbitration", "cost(arrow)", "total hops"},
	}
	for _, r := range rows {
		t.AddRow(r.Arbitration, r.CostArrow, r.TotalHops)
	}
	return t
}

// StretchRow is one point of the Theorem 4.2 experiment: the lower-bound
// instance stretched over the shortcut gadget.
type StretchRow struct {
	S         int
	D         int
	K         int
	Requests  int
	CostArrow int64
	OptUpper  int64
	Ratio     float64
}

// StretchExperiment builds PathWithShortcuts(D, s) for each s, places the
// Theorem 4.1 instance on the multiples of s (exactly the Theorem 4.2
// construction), and measures the ratio growth ~ s·log(D/s)/loglog(D/s).
// Stretches run across the worker pool (0 = GOMAXPROCS).
func StretchExperiment(logDOverS int, stretches []int, workers int) ([]StretchRow, error) {
	rows := make([]StretchRow, len(stretches))
	err := engine.ParallelMapErr(len(stretches), workers, func(i int) error {
		s := stretches[i]
		inner := workload.LowerBound(logDOverS, workload.DefaultK(1<<logDOverS))
		d := inner.D * s
		g := graph.PathWithShortcuts(d, s)
		t := tree.PathTree(d + 1)
		// Map request at path-P' node i to node i*s on the long path.
		mapped := make([]queuing.Request, len(inner.Set))
		for j, r := range inner.Set {
			mapped[j] = queuing.Request{
				Node: graph.NodeID(int(r.Node) * s),
				Time: r.Time * sim.Time(s),
			}
		}
		set := queuing.NewSet(mapped)
		cost, err := engine.Arrow{}.Run(engine.Instance{
			Graph: g, Tree: t, Root: 0, Workload: engine.NewStatic(set).MustBuild(),
		})
		if err != nil {
			return fmt.Errorf("analysis: stretch %d: %w", s, err)
		}
		bounds := opt.Compute(g, 0, set, opt.DistOfGraph(g))
		rows[i] = StretchRow{
			S:         s,
			D:         d,
			K:         inner.K,
			Requests:  len(set),
			CostArrow: cost.TotalLatency,
			OptUpper:  bounds.Upper,
			Ratio:     opt.Ratio(cost.TotalLatency, bounds.Upper),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// StretchTable formats the Theorem 4.2 sweep.
func StretchTable(rows []StretchRow) *Table {
	t := &Table{
		Title:   "Theorem 4.2 — lower bound with stretch-s shortcut gadget",
		Headers: []string{"s", "D", "k", "|R|", "cost(arrow)", "opt upper", "ratio >="},
	}
	for _, r := range rows {
		t.AddRow(r.S, r.D, r.K, r.Requests, r.CostArrow, r.OptUpper, r.Ratio)
	}
	return t
}
