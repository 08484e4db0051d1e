package analysis

import "repro/internal/engine"

// Params are the arrowbench flags an experiment may read. Sizes and
// PerNode always hold the -sizes / -pernode values, defaults included;
// SizesSet and PerNodeSet say the flag was passed explicitly, for the
// tiers whose own default differs from the flag's.
type Params struct {
	Sizes   []int
	PerNode int
	Seed    int64
	// Workers sizes every sweep pool (0 = GOMAXPROCS, 1 = sequential);
	// results are identical at every count.
	Workers int
	// Objects are the -objects counts; nil means the shard default.
	Objects              []int
	SizesSet, PerNodeSet bool
}

// Document is the versioned machine-readable form of an experiment,
// what `arrowbench -exp <name> -json` prints: the schema string (bump it
// on any field rename or semantic change), the experiment's config with
// its defaults resolved, and one row per cell.
type Document[C, R any] struct {
	Schema string `json:"schema"`
	Config C      `json:"config"`
	Rows   []R    `json:"rows"`
}

// Result is one experiment run: its tables and, for the experiments
// that have one, the Document that -json prints in their place.
type Result struct {
	Tables []*Table
	Doc    any
}

// Experiment is one entry of the arrowbench surface.
type Experiment struct {
	Name string
	// Desc is the one line `arrowbench -h` prints.
	Desc string
	// OptIn keeps the entry out of -exp all.
	OptIn bool
	Run   func(Params) (Result, error)
}

// result assembles a Run return value; building the tables from the
// empty rows of a failed run is harmless.
func result(err error, doc any, tables ...*Table) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return Result{Tables: tables, Doc: doc}, nil
}

// figureRows runs the paper's own Section 5 comparison: the closed-loop
// baselines grid restricted to arrow and centralized, the rows Fig10Table
// and Fig11Table are views of.
func figureRows(p Params) ([]BaselineRow, error) {
	return BaselinesClosedLoop(p.Sizes, p.PerNode, p.Seed, p.Workers, engine.Arrow{}, engine.Centralized{})
}

// Experiments is every experiment arrowbench runs, declared once: the
// name -exp selects, the usage line, the parameters the experiment runs
// at where no flag feeds them, and the run itself. -exp all walks it in
// order.
var Experiments = []Experiment{
	{Name: "fig10", Desc: "Figure 10: arrow vs centralized makespan", Run: func(p Params) (Result, error) {
		rows, err := figureRows(p)
		return result(err, nil, Fig10Table(rows))
	}},
	{Name: "fig11", Desc: "Figure 11: avg hops per queuing op", Run: func(p Params) (Result, error) {
		rows, err := figureRows(p)
		return result(err, nil, Fig11Table(rows))
	}},
	{Name: "lowerbound", Desc: "Theorem 4.1 instance sweep", Run: func(p Params) (Result, error) {
		rows, err := LowerBoundSweep([]int{3, 4, 5, 6, 7, 8}, p.Workers)
		return result(err, nil, LowerBoundTable(rows))
	}},
	{Name: "adversarial", Desc: "randomized worst-ratio search", Run: func(p Params) (Result, error) {
		rows, err := AdversarialSweep([]int{8, 16, 32, 64, 128}, 10, 600, p.Seed, p.Workers)
		return result(err, nil, AdversarialTable(rows))
	}},
	{Name: "ratio", Desc: "Theorem 3.19 ratio sweep (exact opt)", Run: func(p Params) (Result, error) {
		rows, err := MeasureRatios(DefaultRatioConfigs(p.Seed), p.Workers)
		return result(err, nil, RatioTable(rows))
	}},
	{Name: "sequential", Desc: "Demmer–Herlihy sequential regime", Run: func(p Params) (Result, error) {
		rows, err := SequentialExperiment([]int{8, 16, 32, 64}, 40, p.Seed, p.Workers)
		return result(err, nil, SequentialTable(rows))
	}},
	{Name: "trees", Desc: "spanning-tree ablation", Run: func(p Params) (Result, error) {
		rows, err := TreeChoiceExperiment(32, 24, p.Seed, p.Workers)
		return result(err, nil, TreeChoiceTable(rows))
	}},
	{Name: "arbitration", Desc: "simultaneous-message arbitration ablation", Run: func(p Params) (Result, error) {
		rows, err := ArbitrationExperiment(63, p.Seed, p.Workers)
		return result(err, nil, ArbitrationTable(rows))
	}},
	{Name: "async", Desc: "Section 3.8 asynchronous models", Run: func(p Params) (Result, error) {
		rows, err := AsyncExperiment(32, 16, 8, p.Seed, p.Workers)
		return result(err, nil, AsyncTable(rows))
	}},
	{Name: "stretch", Desc: "Theorem 4.2 shortcut gadget", Run: func(p Params) (Result, error) {
		rows, err := StretchExperiment(4, []int{1, 2, 4, 8}, p.Workers)
		return result(err, nil, StretchTable(rows))
	}},
	{Name: "nnapprox", Desc: "Theorem 3.18 NN-vs-optimal sweep", Run: func(p Params) (Result, error) {
		rows, err := NNApproximationSweep([]int{6, 8, 10, 12}, 4, p.Seed)
		return result(err, nil, NNApproxTable(rows))
	}},
	{Name: "baselines", Desc: "arrow vs NTA vs centralized, closed loop + static", Run: func(p Params) (Result, error) {
		rows, err := BaselinesClosedLoop(p.Sizes, p.PerNode, p.Seed, p.Workers)
		if err != nil {
			return Result{}, err
		}
		static, err := BaselinesStaticTable(p.Seed, p.Workers)
		return result(err, nil, BaselinesClosedLoopTable(rows), static)
	}},
	{Name: "perf", Desc: "per-request latency/hop distributions (p50..p999), all protocols", Run: func(p Params) (Result, error) {
		doc, err := PerfExperiment(PerfConfig{Sizes: p.Sizes, PerNode: p.PerNode, Seed: p.Seed}, p.Workers)
		return result(err, doc, PerfLatencyTable(doc.Rows), PerfHopsTable(doc.Rows))
	}},
	{Name: "oneshot", Desc: "PODC'01 one-shot regime: ratio vs s log |R|", Run: func(p Params) (Result, error) {
		rows, err := OneShotExperiment(32, []int{2, 4, 8, 12}, p.Seed, p.Workers)
		return result(err, nil, OneShotTable(rows))
	}},
	{Name: "directory", Desc: "arrow directory vs home-based (Herlihy–Warres)", Run: func(p Params) (Result, error) {
		rows, err := DirectoryExperiment([]int{2, 3, 5, 8}, 200, p.Seed)
		return result(err, nil, DirectoryTable(rows))
	}},
	{Name: "commtree", Desc: "Peleg–Reshef demand-aware tree selection", Run: func(p Params) (Result, error) {
		rows, err := CommTreeExperiment(6, 60, p.Seed)
		return result(err, nil, CommTreeTable(rows))
	}},
	{Name: "stabilize", Desc: "self-stabilization: round oracle vs message-driven repair", Run: func(p Params) (Result, error) {
		doc, err := StabilizeExperiment(StabilizeConfig{
			Sizes: []int{15, 63, 255, 1023}, CorruptFrac: 0.3, Trials: 20, Seed: p.Seed,
		})
		return result(err, doc, StabilizeTable(doc.Rows))
	}},
	// -pernode scales the churn cells but is capped: the churn window is
	// sized relative to the run, so the smoke-sized cap stays
	// representative.
	{Name: "churn", Desc: "dynamic topology: availability/latency vs fault rate, all protocols", Run: func(p Params) (Result, error) {
		doc, err := ChurnExperiment(ChurnConfig{
			N: 24, PerNode: min(p.PerNode, 500), Rates: []float64{0, 0.5, 1, 2}, Seed: p.Seed,
		}, p.Workers)
		return result(err, doc, ChurnAvailabilityTable(doc.Rows), ChurnLatencyTable(doc.Rows))
	}},
	// The scale tier has its own size and per-node defaults (millions of
	// nodes, a fixed total-request budget); only an explicit flag wins.
	// Workers does not apply: its cells are sequential so each one's
	// allocation delta is its own.
	{Name: "scale", Desc: "million-node tier: implicit topologies, bytes/node, events/s (minutes of runtime)", OptIn: true, Run: func(p Params) (Result, error) {
		cfg := ScaleConfig{Seed: p.Seed}
		if p.SizesSet {
			cfg.Sizes = p.Sizes
		}
		if p.PerNodeSet {
			cfg.PerNode = p.PerNode
		}
		doc, err := ScaleExperiment(cfg)
		return result(err, doc, ScaleTable(doc.Rows))
	}},
	{Name: "shard", Desc: "multi-object sharding: k objects on one shared capacity-1 network", Run: func(p Params) (Result, error) {
		cfg := ShardConfig{PerNode: 250, Objects: p.Objects, Seed: p.Seed}
		if p.PerNodeSet {
			cfg.PerNode = p.PerNode
		}
		doc, err := ShardExperiment(cfg, p.Workers)
		return result(err, doc, ShardTable(doc.Rows))
	}},
}
