package analysis

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/tsp"
	"repro/internal/workload"
)

// LowerBoundRow is one point of the Theorem 4.1 experiment.
type LowerBoundRow struct {
	LogD     int
	D        int
	K        int
	Requests int
	// CostArrow is arrow's total latency on the instance (theory: ~k·D).
	CostArrow int64
	// OptUpper is the cost of the best offline order we can construct
	// under cOpt (theory: O(D)).
	OptUpper int64
	// OptLower is costOpt itself up to opt.MaxExactRequests requests,
	// where Exact is set, and 0 beyond: no lower bound is certified there.
	OptLower int64
	Exact    bool
	// Ratio is CostArrow / OptUpper — a lower bound on the true
	// competitive ratio achieved by the instance.
	Ratio float64
}

// LowerBoundSweep runs the Theorem 4.1 instance for each diameter
// exponent, measuring how the arrow/optimal gap grows with D. The
// diameters run across the worker pool (0 = GOMAXPROCS).
func LowerBoundSweep(logDs []int, workers int) ([]LowerBoundRow, error) {
	rows := make([]LowerBoundRow, len(logDs))
	err := engine.ParallelMapErr(len(logDs), workers, func(i int) error {
		logD := logDs[i]
		inst, err := workload.LowerBound(logD, workload.DefaultK(1<<logD))
		if err != nil {
			return err
		}
		g := graph.Path(inst.D + 1)
		t := tree.PathTree(inst.D + 1)
		cost, err := engine.Arrow{}.Run(engine.Instance{
			Graph: g, Tree: t, Root: inst.Root, Workload: engine.NewStatic(inst.Set).MustBuild(),
		})
		if err != nil {
			return fmt.Errorf("analysis: lower bound logD=%d: %w", logD, err)
		}
		bounds := opt.Compute(g, inst.Root, inst.Set)
		rows[i] = LowerBoundRow{
			LogD:      logD,
			D:         inst.D,
			K:         inst.K,
			Requests:  len(inst.Set),
			CostArrow: cost.TotalLatency,
			OptUpper:  bounds.Upper,
			OptLower:  bounds.Lower,
			Exact:     bounds.Exact,
			Ratio:     opt.Ratio(cost.TotalLatency, bounds.Upper),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// LowerBoundTable formats the Theorem 4.1 sweep. The "opt exact" column
// prints costOpt where it is exact and "—" where it is not certified.
// The last column is the measured cost(arrow)/D, which the construction
// aims to make about k (arrow sweeping the path once per level).
func LowerBoundTable(rows []LowerBoundRow) *Table {
	t := &Table{
		Title:   "Theorem 4.1 / Figure 9 — adversarial instance, arrow vs optimal",
		Headers: []string{"D", "k", "|R|", "cost(arrow)", "opt upper", "opt exact", "ratio >=", "cost/D"},
	}
	for _, r := range rows {
		optCell := "—"
		if r.Exact {
			optCell = fmt.Sprint(r.OptLower)
		}
		t.AddRow(r.D, r.K, r.Requests, r.CostArrow, r.OptUpper, optCell, r.Ratio, float64(r.CostArrow)/float64(r.D))
	}
	return t
}

// RatioRow is one point of the Theorem 3.19 validation: measured
// competitive ratio against the O(s log D) bound.
type RatioRow struct {
	Topology string
	Tree     string
	Workload string
	N        int
	Requests int
	S        float64
	D        int64
	// CostArrow is arrow's total latency.
	CostArrow int64
	// Opt is opt.Bounds.Best(): costOpt when Exact, else an achievable
	// order's cost.
	Opt   int64
	Exact bool
	// Ratio is CostArrow/Opt, which can only read low when not Exact.
	Ratio float64
	// Bound is s·log2(3D), the shape of the Theorem 3.19 guarantee.
	Bound float64
}

// RatioConfig describes one competitive-ratio measurement.
type RatioConfig struct {
	Name     string
	Graph    *graph.Graph
	TreeKind TreeKind
	Set      queuing.Set
	WorkName string
	Seed     int64
}

// MeasureRatio runs arrow on the configuration and bounds the optimal
// offline cost.
func MeasureRatio(cfg RatioConfig) (RatioRow, error) {
	t, err := BuildTree(cfg.TreeKind, cfg.Graph)
	if err != nil {
		return RatioRow{}, err
	}
	cost, err := engine.Arrow{}.Run(engine.Instance{
		Label:    cfg.Name,
		Graph:    cfg.Graph,
		Tree:     t,
		Root:     t.Root(),
		Workload: engine.NewStatic(cfg.Set).MustBuild(),
		Seed:     cfg.Seed,
	})
	if err != nil {
		return RatioRow{}, err
	}
	bounds := opt.Compute(cfg.Graph, t.Root(), cfg.Set)
	s := t.EdgeStretch(cfg.Graph)
	d := t.Diameter()
	row := RatioRow{
		Topology:  cfg.Name,
		Tree:      cfg.TreeKind.String(),
		Workload:  cfg.WorkName,
		N:         cfg.Graph.NumNodes(),
		Requests:  len(cfg.Set),
		S:         s,
		D:         d,
		CostArrow: cost.TotalLatency,
		Opt:       bounds.Best(),
		Exact:     bounds.Exact,
		Ratio:     opt.Ratio(cost.TotalLatency, bounds.Best()),
		Bound:     s * math.Log2(3*float64(max(d, 2))),
	}
	return row, nil
}

// MeasureRatios runs MeasureRatio for every configuration across a
// worker pool (0 = GOMAXPROCS), returning rows in configuration order.
func MeasureRatios(cfgs []RatioConfig, workers int) ([]RatioRow, error) {
	rows := make([]RatioRow, len(cfgs))
	err := engine.ParallelMapErr(len(cfgs), workers, func(i int) error {
		var err error
		rows[i], err = MeasureRatio(cfgs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RatioTable formats competitive-ratio measurements.
func RatioTable(rows []RatioRow) *Table {
	t := &Table{
		Title: "Theorem 3.19 — measured competitive ratio vs O(s log D)",
		Headers: []string{"topology", "tree", "workload", "n", "|R|", "s", "D",
			"cost(arrow)", "opt", "exact", "ratio", "s*log2(3D)"},
	}
	for _, r := range rows {
		t.AddRow(r.Topology, r.Tree, r.Workload, r.N, r.Requests, r.S, r.D,
			r.CostArrow, r.Opt, r.Exact, r.Ratio, r.Bound)
	}
	return t
}

// DefaultRatioConfigs returns the standard sweep used by the ratio
// experiment and benchmarks: several topologies and concurrency regimes
// with small request sets so the optimum is computed exactly.
func DefaultRatioConfigs(seed int64) []RatioConfig {
	grid := graph.Grid(6, 6)
	ring := graph.Cycle(24)
	complete := graph.Complete(24)
	geo := graph.RandomGeometric(30, 0.4, 4, seed)
	var cfgs []RatioConfig
	add := func(name string, g *graph.Graph, kind TreeKind, set queuing.Set, wname string) {
		cfgs = append(cfgs, RatioConfig{
			Name: name, Graph: g, TreeKind: kind, Set: set, WorkName: wname, Seed: seed,
		})
	}
	add("grid6x6", grid, TreeBFS, workload.OneShot(36, 10, seed), "oneshot10")
	add("grid6x6", grid, TreeBFS, workload.Poisson(36, 0.2, 60, seed), "poisson")
	add("ring24", ring, TreeMST, workload.OneShot(24, 10, seed+1), "oneshot10")
	add("ring24", ring, TreeMST, workload.Bursty(24, 5, 2, 40, seed+1), "bursty")
	add("complete24", complete, TreeBalancedBinary, workload.OneShot(24, 12, seed+2), "oneshot12")
	add("complete24", complete, TreeBalancedBinary, workload.Sequential(24, 10, 20, seed+2), "sequential")
	add("geo30", geo, TreeMST, workload.Poisson(30, 0.1, 100, seed+3), "poisson")
	add("geo30", geo, TreeBFS, workload.Hotspot(30, 10, 0.5, 50, seed+3), "hotspot")
	return cfgs
}

// SequentialRow is one point of the Demmer–Herlihy sequential regime
// check (E6): requests spaced more than 2D apart.
type SequentialRow struct {
	N        int
	D        int64
	S        float64
	Requests int
	MaxHops  int
	// Ratio compares arrow to the optimal cost of the same (time) order —
	// the sequential competitive ratio, bounded by s.
	Ratio float64
}

// SequentialExperiment validates the sequential-case bounds on complete
// graphs with balanced binary trees. Node counts run across the worker
// pool (0 = GOMAXPROCS).
func SequentialExperiment(ns []int, requests int, seed int64, workers int) ([]SequentialRow, error) {
	rows := make([]SequentialRow, len(ns))
	err := engine.ParallelMapErr(len(ns), workers, func(i int) error {
		n := ns[i]
		g := graph.Complete(n)
		t := tree.BalancedBinary(n)
		d := t.Diameter()
		set := workload.Sequential(n, requests, sim.Time(3*d+3), seed)
		cost, err := engine.Arrow{}.Run(engine.Instance{
			Graph: g, Tree: t, Root: 0, Workload: engine.NewStatic(set).MustBuild(),
		})
		if err != nil {
			return err
		}
		// Time order is an optimal order here: at a constant gap of at
		// least 3·D_G it is optimal under c_O (opt's
		// TestTimeOrderOptimalFromGap3D), and 3·D_T+3 >= 3·D_G since
		// D_G <= D_T. Compare arrow's cost to that order's cost over G.
		dg := opt.DistOfGraph(g)
		timeOrder := make(queuing.Order, len(set))
		for j := range timeOrder {
			timeOrder[j] = j
		}
		optCost := queuing.OrderCost(set, 0, timeOrder, queuing.CO(dg))
		rows[i] = SequentialRow{
			N:        n,
			D:        d,
			S:        t.EdgeStretch(g),
			Requests: len(set),
			MaxHops:  cost.MaxHops,
			Ratio:    opt.Ratio(cost.TotalLatency, optCost),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SequentialTable formats the sequential-regime check.
func SequentialTable(rows []SequentialRow) *Table {
	t := &Table{
		Title:   "Sequential regime (Demmer–Herlihy): per-op hops <= D, ratio <= s",
		Headers: []string{"n", "D", "s", "|R|", "max hops", "ratio"},
	}
	for _, r := range rows {
		t.AddRow(r.N, r.D, r.S, r.Requests, r.MaxHops, r.Ratio)
	}
	return t
}

// NNApproxRow is one point of the Theorem 3.18 validation (E8).
type NNApproxRow struct {
	Points int
	NNCost int64
	Opt    int64
	Ratio  float64
	Bound  float64
}

// NNApproximationSweep builds random time-annotated metric instances,
// compares the NN path under cT against the exact optimal tour under cM,
// and reports the Theorem 3.18 bound 3/2·log2(DNN/dNN) (tours add a
// factor <= 2 for paths).
func NNApproximationSweep(sizes []int, trialsPerSize int, seed int64) ([]NNApproxRow, error) {
	var rows []NNApproxRow
	for _, n := range sizes {
		if n+1 > tsp.MaxExactN {
			return nil, fmt.Errorf("analysis: size %d exceeds exact solver limit", n)
		}
		for trial := 0; trial < trialsPerSize; trial++ {
			s := seed + int64(n*1000+trial)
			set, root, t := randomTreeInstance(n, s)
			dt := func(u, v graph.NodeID) graph.Weight { return t.Dist(u, v) }
			cT := opt.CostAdapter(set, root, queuing.CT(dt))
			cM := opt.CostAdapter(set, root, queuing.CM(dt))
			order, nnCost := tsp.NearestNeighborPath(n+1, cT)
			optTour, err := tsp.OptimalTour(n+1, cM)
			if err != nil {
				return nil, err
			}
			var dnn, dmax int64 = math.MaxInt64, 1
			for i := 1; i < len(order); i++ {
				c := cT(order[i-1], order[i])
				if c > 0 && c < dnn {
					dnn = c
				}
				if c > dmax {
					dmax = c
				}
			}
			if dnn == math.MaxInt64 {
				dnn = 1
			}
			bound := 1.5 * math.Ceil(math.Log2(float64(dmax)/float64(dnn)+1))
			rows = append(rows, NNApproxRow{
				Points: n + 1,
				NNCost: nnCost,
				Opt:    optTour,
				Ratio:  opt.Ratio(nnCost, optTour),
				Bound:  bound,
			})
		}
	}
	return rows, nil
}

// NNApproxTable formats the Theorem 3.18 sweep.
func NNApproxTable(rows []NNApproxRow) *Table {
	t := &Table{
		Title:   "Theorem 3.18 — NN heuristic vs exact optimum (random instances)",
		Headers: []string{"points", "NN cost", "opt tour", "ratio", "bound"},
	}
	for _, r := range rows {
		t.AddRow(r.Points, r.NNCost, r.Opt, r.Ratio, r.Bound)
	}
	return t
}

// randomTreeInstance builds a random tree on n+? nodes and n requests for
// NN-approximation experiments.
func randomTreeInstance(nReq int, seed int64) (queuing.Set, graph.NodeID, *tree.Tree) {
	nNodes := nReq + 2
	g := graph.GNP(nNodes, 0.3, seed)
	t, err := tree.BFS(g, 0)
	if err != nil {
		panic(err)
	}
	set := workload.Poisson(nNodes, 0.5, sim.Time(4*nNodes), seed)
	if len(set) > nReq {
		set = queuing.NewSet(set[:nReq])
	}
	for len(set) < nReq {
		extra := workload.OneShot(nNodes, nReq-len(set), seed+7)
		set = queuing.NewSet(append(set, extra...))
	}
	return set, 0, t
}
