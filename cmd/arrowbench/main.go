// Command arrowbench regenerates the paper's tables and figures plus the
// theory-validation experiments described in DESIGN.md.
//
// Usage:
//
//	arrowbench -exp fig10        # Figure 10: arrow vs centralized makespan
//	arrowbench -exp fig11        # Figure 11: avg hops per queuing op
//	arrowbench -exp lowerbound   # Theorem 4.1 instance sweep
//	arrowbench -exp adversarial  # randomized worst-ratio search
//	arrowbench -exp ratio        # Theorem 3.19 ratio sweep (exact opt)
//	arrowbench -exp sequential   # Demmer–Herlihy sequential regime
//	arrowbench -exp trees        # spanning-tree ablation
//	arrowbench -exp arbitration  # simultaneous-message arbitration ablation
//	arrowbench -exp async        # Section 3.8 asynchronous models
//	arrowbench -exp stretch      # Theorem 4.2 shortcut gadget
//	arrowbench -exp nnapprox     # Theorem 3.18 NN-vs-optimal sweep
//	arrowbench -exp baselines    # arrow vs NTA vs centralized vs Ivy, closed loop + static
//	arrowbench -exp perf         # per-request latency/hop distributions (p50..p999), all protocols
//	arrowbench -exp oneshot      # PODC'01 one-shot regime: ratio vs s log |R|
//	arrowbench -exp directory    # arrow directory vs home-based (Herlihy–Warres)
//	arrowbench -exp commtree     # Peleg–Reshef demand-aware tree selection
//	arrowbench -exp stabilize    # self-stabilization: round oracle vs message-driven repair
//	arrowbench -exp churn        # dynamic topology: availability/latency vs fault rate, all protocols
//	arrowbench -exp scale        # million-node tier: implicit topologies, bytes/node, events/s
//	arrowbench -exp shard        # multi-object sharding: k objects on one shared capacity-1 network
//	arrowbench -exp all          # everything above except scale (opt in: minutes of runtime)
//
// The -pernode, -seed and -sizes flags scale the Section 5 experiments;
// the paper used 100,000 requests per processor on up to 76 processors,
// which this harness reproduces shape-exactly at smaller default sizes
// (pass -pernode 100000 for the full run). The heavyweight sweeps
// (fig10/fig11, adversarial, ratio, baselines) fan their cells across
// -workers simulator workers (default GOMAXPROCS); the remaining
// experiments always use GOMAXPROCS. Results are identical for every
// worker count. Pass -json to emit every table as a machine-readable
// JSON document (one per table) instead of aligned text. For -exp perf,
// scale, shard, churn and stabilize, -json emits the experiment's
// versioned arrowbench/<exp> document instead of generic tables; the
// first four are pinned byte for byte under
// internal/analysis/testdata (TestDocumentsGolden).
//
// -exp scale is the million-node tier: every protocol on its implicit
// topology (no LCA tables, no O(n²) metric), sequential cells reporting
// bytes/node and events/s. Its -sizes default is 10000,100000,1000000
// (an explicit -sizes overrides it), its per-node count derives from a
// 2M total-request budget unless -pernode is passed explicitly; -workers
// does not apply (cells are sequential so each one's allocation delta is
// its own). With -json it emits the versioned arrowbench/scale document.
//
// -exp shard is the multi-object tier: every protocol serving k
// independent objects on one shared 32-node network with per-link
// capacity 1, across an objects × Zipf-skew grid (default k in
// {16, 128, 1024}, skew in {0, 1.1}; override the object counts with
// -objects). Each row reports the aggregate cost of the combined
// traffic plus a fairness summary across objects. Its per-node default
// is 250 requests unless -pernode is passed explicitly, and -workers
// sizes the sweep pool — the output, including the versioned
// arrowbench/shard JSON document under -json, is byte-identical at any
// worker count.
//
// -cpuprofile and -memprofile write pprof profiles covering the
// selected experiment (the memory profile is written at exit, after a
// final GC), for digging into exactly the hot paths the scale tier
// exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/tree"
	"repro/internal/workload"
)

// jsonOut switches table output to machine-readable JSON (-json).
var jsonOut bool

// emit prints a result table in the selected output format.
func emit(t *analysis.Table) {
	if jsonOut {
		fmt.Print(t.RenderJSON())
		return
	}
	fmt.Print(t.Render())
	fmt.Println()
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see command doc)")
	perNode := flag.Int("pernode", 2000, "closed-loop requests per node (paper: 100000)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	sizes := flag.String("sizes", "2,4,8,16,24,32,48,64,76", "comma-separated node counts for fig10/fig11 and baselines")
	objects := flag.String("objects", "", "comma-separated object counts for -exp shard (default 16,128,1024)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	jsonFlag := flag.Bool("json", false, "emit machine-readable JSON tables")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC, at exit) to this file")
	flag.Parse()
	jsonOut = *jsonFlag

	// The scale tier has its own size/pernode defaults (millions of
	// nodes, a fixed total-request budget); an explicit flag still wins.
	sizesSet, perNodeSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sizes":
			sizesSet = true
		case "pernode":
			perNodeSet = true
		}
	})

	ns, err := parseSizes(*sizes)
	if err != nil {
		fatal(err)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	defer func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}()
	experiments := map[string]func() error{
		"fig10":       func() error { return runSP2(ns, *perNode, *seed, *workers, true, false) },
		"fig11":       func() error { return runSP2(ns, *perNode, *seed, *workers, false, true) },
		"lowerbound":  func() error { return runLowerBound() },
		"adversarial": func() error { return runAdversarial(*seed, *workers) },
		"ratio":       func() error { return runRatio(*seed, *workers) },
		"sequential":  func() error { return runSequential(*seed) },
		"trees":       func() error { return runTrees(*seed) },
		"arbitration": func() error { return runArbitration(*seed) },
		"async":       func() error { return runAsync(*seed) },
		"stretch":     func() error { return runStretch() },
		"nnapprox":    func() error { return runNNApprox(*seed) },
		"baselines":   func() error { return runBaselines(ns, *perNode, *seed, *workers) },
		"perf":        func() error { return runPerf(ns, *perNode, *seed, *workers) },
		"oneshot":     func() error { return runOneShot(*seed) },
		"directory":   func() error { return runDirectory(*seed) },
		"commtree":    func() error { return runCommTree(*seed) },
		"stabilize":   func() error { return runStabilize(*seed) },
		"churn":       func() error { return runChurn(*perNode, *seed, *workers) },
		"scale": func() error {
			cfg := analysis.ScaleConfig{Seed: *seed}
			if sizesSet {
				cfg.Sizes = ns
			}
			if perNodeSet {
				cfg.PerNode = *perNode
			}
			return runScale(cfg)
		},
		"shard": func() error {
			cfg := analysis.ShardConfig{Seed: *seed, Workers: *workers, PerNode: 250}
			if perNodeSet {
				cfg.PerNode = *perNode
			}
			if *objects != "" {
				ks, err := parseSizes(*objects)
				if err != nil {
					return err
				}
				cfg.Objects = ks
			}
			return runShard(cfg)
		},
	}
	if *exp == "all" {
		order := []string{
			"fig10", "fig11", "lowerbound", "adversarial", "ratio", "sequential",
			"trees", "arbitration", "async", "stretch", "nnapprox", "baselines",
			"perf", "oneshot", "directory", "commtree", "stabilize", "churn",
			"shard",
		}
		for _, name := range order {
			if name == "fig10" {
				if err := runSP2(ns, *perNode, *seed, *workers, true, true); err != nil {
					fatal(err)
				}
				continue
			}
			if name == "fig11" {
				continue // already printed with fig10
			}
			if err := experiments[name](); err != nil {
				fatal(err)
			}
		}
		return
	}
	run, ok := experiments[*exp]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
	if err := run(); err != nil {
		fatal(err)
	}
}

func parseSizes(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arrowbench:", err)
	os.Exit(1)
}

func runSP2(ns []int, perNode int, seed int64, workers int, fig10, fig11 bool) error {
	rows, err := analysis.SP2Experiment(ns, perNode, seed, workers)
	if err != nil {
		return err
	}
	if fig10 {
		emit(analysis.Fig10Table(rows))
	}
	if fig11 {
		emit(analysis.Fig11Table(rows))
	}
	return nil
}

func runLowerBound() error {
	rows, err := analysis.LowerBoundSweep([]int{3, 4, 5, 6, 7, 8})
	if err != nil {
		return err
	}
	emit(analysis.LowerBoundTable(rows))
	return nil
}

func runAdversarial(seed int64, workers int) error {
	results, err := analysis.AdversarialSweep([]int{8, 16, 32, 64, 128}, 10, 600, seed, workers)
	if err != nil {
		return err
	}
	emit(analysis.AdversarialTable(results))
	return nil
}

func runRatio(seed int64, workers int) error {
	rows, err := analysis.MeasureRatios(analysis.DefaultRatioConfigs(seed), workers)
	if err != nil {
		return err
	}
	emit(analysis.RatioTable("Theorem 3.19 — measured competitive ratio vs O(s log D)", rows))
	return nil
}

func runSequential(seed int64) error {
	rows, err := analysis.SequentialExperiment([]int{8, 16, 32, 64}, 40, seed)
	if err != nil {
		return err
	}
	emit(analysis.SequentialTable(rows))
	return nil
}

func runTrees(seed int64) error {
	rows, err := analysis.TreeChoiceExperiment(32, 24, seed)
	if err != nil {
		return err
	}
	emit(analysis.TreeChoiceTable(rows))
	return nil
}

func runArbitration(seed int64) error {
	rows, err := analysis.ArbitrationExperiment(63, seed)
	if err != nil {
		return err
	}
	emit(analysis.ArbitrationTable(rows))
	return nil
}

func runAsync(seed int64) error {
	rows, err := analysis.AsyncExperiment(32, 16, 8, seed)
	if err != nil {
		return err
	}
	emit(analysis.AsyncTable(rows))
	return nil
}

func runStretch() error {
	rows, err := analysis.StretchExperiment(4, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	emit(analysis.StretchTable(rows))
	return nil
}

func runNNApprox(seed int64) error {
	rows, err := analysis.NNApproximationSweep([]int{6, 8, 10, 12}, 4, seed)
	if err != nil {
		return err
	}
	t := &analysis.Table{
		Title:   "Theorem 3.18 — NN heuristic vs exact optimum (random instances)",
		Headers: []string{"points", "NN cost", "opt tour", "ratio", "bound"},
	}
	for _, r := range rows {
		t.AddRow(r.Points, r.NNCost, r.Opt, r.Ratio, r.Bound)
	}
	emit(t)
	return nil
}

func runOneShot(seed int64) error {
	rows, err := analysis.OneShotExperiment(32, []int{2, 4, 8, 12}, seed)
	if err != nil {
		return err
	}
	emit(analysis.OneShotTable(rows))
	return nil
}

func runDirectory(seed int64) error {
	rows, err := analysis.DirectoryExperiment([]int{2, 3, 5, 8}, 200, seed)
	if err != nil {
		return err
	}
	emit(analysis.DirectoryTable(rows))
	return nil
}

// runBaselines compares every protocol the engine knows — arrow, NTA,
// centralized and Ivy — first on the paper's closed-loop regime across
// the -sizes node counts (split queue/reply hop columns), then on one
// shared static Poisson workload with the optimal-cost bound. Both are
// single parallel sweeps.
func runBaselines(ns []int, perNode int, seed int64, workers int) error {
	rows, err := analysis.BaselinesClosedLoop(ns, perNode, seed, workers)
	if err != nil {
		return err
	}
	emit(analysis.BaselinesClosedLoopTable(rows))

	const n = 48
	g := graph.Complete(n)
	t := tree.BalancedBinary(n)
	set := workload.Poisson(n, 1.0, 200, seed)
	if len(set) == 0 {
		return fmt.Errorf("empty workload")
	}
	inst := engine.Instance{
		Label:    fmt.Sprintf("complete%d", n),
		Graph:    g,
		Tree:     t,
		Root:     0,
		Workload: engine.NewStatic(set).MustBuild(),
		Seed:     seed,
	}
	cells := engine.Grid([]engine.Instance{inst},
		engine.Arrow{}, engine.NTA{}, engine.Centralized{}, engine.Ivy{})
	outs := engine.Sweep(cells, workers)
	if err := engine.FirstError(outs); err != nil {
		return err
	}
	bounds := opt.Compute(g, 0, set, opt.DistOfGraph(g))
	den := bounds.Upper
	if bounds.Exact {
		den = bounds.Lower
	}
	tbl := &analysis.Table{
		Title:   fmt.Sprintf("Baselines — complete graph n=%d, |R|=%d Poisson requests (static)", n, len(set)),
		Headers: []string{"protocol", "total latency", "messages", "makespan", "ratio vs opt bound"},
	}
	for _, c := range engine.Costs(outs) {
		tbl.AddRow(c.Protocol, c.TotalLatency, c.QueueHops, c.Makespan, opt.Ratio(c.TotalLatency, den))
	}
	emit(tbl)
	return nil
}

// runPerf runs the per-request observability experiment: latency and
// hop distributions for every protocol over the size × workload grid.
// With -json it emits the versioned arrowbench/perf document instead
// of generic tables.
func runPerf(ns []int, perNode int, seed int64, workers int) error {
	rows, err := analysis.PerfExperiment(ns, perNode, seed, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitDoc(analysis.PerfDocument(analysis.PerfConfig{
			Sizes: ns, PerNode: perNode, Seed: seed,
		}, rows))
	}
	emit(analysis.PerfLatencyTable(rows))
	emit(analysis.PerfHopsTable(rows))
	return nil
}

// runScale runs the million-node tier: sequential cells, implicit
// topologies, per-cell allocation and throughput accounting. With -json
// it emits the versioned arrowbench/scale document.
func runScale(cfg analysis.ScaleConfig) error {
	rows, err := analysis.ScaleExperiment(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitDoc(analysis.ScaleDocument(cfg, rows))
	}
	emit(analysis.ScaleTable(rows))
	return nil
}

// runShard runs the multi-object sharding tier: k protocol instances on
// one shared capacity-1 network, across an objects × skew grid. With
// -json it emits the versioned arrowbench/shard document, byte-identical
// at any -workers count.
func runShard(cfg analysis.ShardConfig) error {
	rows, err := analysis.ShardExperiment(cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitDoc(analysis.ShardDocument(cfg, rows))
	}
	emit(analysis.ShardTable(rows))
	return nil
}

func runCommTree(seed int64) error {
	rows, err := analysis.CommTreeExperiment(6, 60, seed)
	if err != nil {
		return err
	}
	emit(analysis.CommTreeTable(rows))
	return nil
}

func runStabilize(seed int64) error {
	cfg := analysis.StabilizeConfig{
		Sizes: []int{15, 63, 255, 1023}, CorruptFrac: 0.3, Trials: 20, Seed: seed,
	}
	rows, err := analysis.StabilizeExperiment(cfg.Sizes, cfg.CorruptFrac, cfg.Trials, cfg.Seed)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitDoc(analysis.StabilizeDocument(cfg, rows))
	}
	emit(analysis.StabilizeTable(rows))
	return nil
}

// runChurn sweeps fault rate × workload × protocol under deterministic
// node churn: every protocol faces the identical failure trace per
// rate, recovering by its own mechanism (arrow: message-driven repair;
// NTA/Ivy: re-issue; centralized: coordinator failover). -pernode
// scales the cells but is capped: the churn window is sized relative to
// the run, so the smoke-sized default stays representative.
func runChurn(perNode int, seed int64, workers int) error {
	if perNode > 500 {
		perNode = 500
	}
	cfg := analysis.ChurnConfig{
		N: 24, PerNode: perNode, Rates: []float64{0, 0.5, 1, 2}, Seed: seed,
	}
	rows, err := analysis.ChurnExperiment(cfg.N, cfg.PerNode, cfg.Rates, cfg.Seed, workers)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitDoc(analysis.ChurnDocument(cfg, rows))
	}
	emit(analysis.ChurnAvailabilityTable(rows))
	emit(analysis.ChurnLatencyTable(rows))
	return nil
}

// emitDoc prints one versioned machine-readable document.
func emitDoc(doc any) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
