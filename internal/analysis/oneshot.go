package analysis

import (
	"math"

	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/tree"
	"repro/internal/workload"
)

// OneShotRow is one point of the concurrent one-shot experiment: all
// requests issued simultaneously, the setting of Herlihy, Tirthapura and
// Wattenhofer's PODC'01 analysis [10], whose bound is s·log|R|.
type OneShotRow struct {
	N    int
	R    int
	S    float64
	D    int64
	Cost int64
	// Opt is opt.Bounds.Best(): costOpt when Exact, else an achievable
	// order's cost.
	Opt   int64
	Exact bool
	Ratio float64
	// Bound is s·log2|R|, the one-shot guarantee's shape.
	Bound float64
}

// OneShotExperiment sweeps request-set sizes on a complete graph with the
// balanced binary tree, measuring the ratio against s·log|R|. Set sizes
// run across the worker pool (the exact optimum dominates each cell's
// cost).
func OneShotExperiment(n int, rs []int, seed int64, workers int) ([]OneShotRow, error) {
	g := graph.Complete(n)
	t := tree.BalancedBinary(n)
	s := t.EdgeStretch(g)
	d := t.Diameter()
	rows := make([]OneShotRow, len(rs))
	err := engine.ParallelMapErr(len(rs), workers, func(i int) error {
		r := rs[i]
		set := workload.OneShot(n, r, seed+int64(r))
		cost, err := engine.Arrow{}.Run(engine.Instance{
			Graph: g, Tree: t, Root: 0, Workload: engine.NewStatic(set).MustBuild(),
		})
		if err != nil {
			return err
		}
		bounds := opt.Compute(g, 0, set)
		rows[i] = OneShotRow{
			N:     n,
			R:     r,
			S:     s,
			D:     d,
			Cost:  cost.TotalLatency,
			Opt:   bounds.Best(),
			Exact: bounds.Exact,
			Ratio: opt.Ratio(cost.TotalLatency, bounds.Best()),
			Bound: s * math.Log2(float64(max(r, 2))),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// OneShotTable formats the one-shot sweep.
func OneShotTable(rows []OneShotRow) *Table {
	t := &Table{
		Title:   "One-shot concurrent requests (PODC'01 regime): ratio vs s·log|R|",
		Headers: []string{"n", "|R|", "s", "D", "cost(arrow)", "opt", "exact", "ratio", "s*log2|R|"},
	}
	for _, r := range rows {
		t.AddRow(r.N, r.R, r.S, r.D, r.Cost, r.Opt, r.Exact, r.Ratio, r.Bound)
	}
	return t
}

// DirectoryRow compares the arrow directory with the home-based
// directory (Herlihy–Warres [12], discussed in the paper's Section 5.1).
type DirectoryRow struct {
	N             int     `json:"n"`
	ArrowMakespan int64   `json:"arrow_makespan"`
	HomeMakespan  int64   `json:"home_makespan"`
	ArrowAvgAcq   float64 `json:"arrow_avg_acq"`
	HomeAvgAcq    float64 `json:"home_avg_acq"`
	ArrowObjHops  float64 `json:"arrow_obj_hops"`
	HomeObjHops   float64 `json:"home_obj_hops"`
	ArrowFindHops int64   `json:"arrow_find_hops"`
	HomeFindHops  int64   `json:"home_find_hops"`
}

// DirectorySchema versions the machine-readable directory document.
const DirectorySchema = "arrowbench/directory/v1"

// DirectoryConfig is the directory experiment's parameters, recorded
// inside its document: the grid sides and acquisitions per node.
type DirectoryConfig struct {
	Sides   []int `json:"sides"`
	PerNode int   `json:"per_node"`
	Seed    int64 `json:"seed"`
}

// DirectoryExperiment runs both directories closed-loop on square grids
// (side x side) — a topology with real distance variance, where the
// arrow directory's locality (successive holders are nearest-neighbour
// close, by Lemma 3.8) beats the home-based directory's fixed round
// trips through the home node. Row N reports side². It returns the
// arrowbench/directory document, FindHops included, which the table
// omits.
func DirectoryExperiment(cfg DirectoryConfig) (Document[DirectoryConfig, DirectoryRow], error) {
	doc := Document[DirectoryConfig, DirectoryRow]{
		Schema: DirectorySchema, Config: cfg, Rows: make([]DirectoryRow, 0, len(cfg.Sides)),
	}
	for _, side := range cfg.Sides {
		n := side * side
		g := graph.Grid(side, side)
		center, _ := g.Center()
		t, err := tree.BFS(g, center)
		if err != nil {
			return doc, err
		}
		dc := directory.Config{PerNode: cfg.PerNode, Seed: cfg.Seed}
		ar, err := directory.RunArrow(t, center, dc)
		if err != nil {
			return doc, err
		}
		ho, err := directory.RunHome(g, center, dc)
		if err != nil {
			return doc, err
		}
		doc.Rows = append(doc.Rows, DirectoryRow{
			N:             n,
			ArrowMakespan: int64(ar.Makespan),
			HomeMakespan:  int64(ho.Makespan),
			ArrowAvgAcq:   ar.AvgAcquireLatency(),
			HomeAvgAcq:    ho.AvgAcquireLatency(),
			ArrowObjHops:  ar.AvgObjectHops(),
			HomeObjHops:   ho.AvgObjectHops(),
			ArrowFindHops: ar.FindHops,
			HomeFindHops:  ho.FindHops,
		})
	}
	return doc, nil
}

// DirectoryTable formats the two-directories comparison.
func DirectoryTable(rows []DirectoryRow) *Table {
	t := &Table{
		Title: "A tale of two directories (Herlihy–Warres) — arrow vs home-based",
		Headers: []string{"n", "arrow makespan", "home makespan", "arrow acq lat",
			"home acq lat", "arrow obj hops/op", "home obj hops/op"},
	}
	for _, r := range rows {
		t.AddRow(r.N, r.ArrowMakespan, r.HomeMakespan, r.ArrowAvgAcq,
			r.HomeAvgAcq, r.ArrowObjHops, r.HomeObjHops)
	}
	return t
}
