package analysis

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arrow"
	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/tree"
	"repro/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"a", "long-header"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("xyz", "w")
	out := tbl.Render()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "2.500") {
		t.Error("float not formatted to 3 decimals")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestBuildTreeKinds(t *testing.T) {
	g := graph.Complete(15)
	for _, kind := range []TreeKind{
		TreeBalancedBinary, TreeMST, TreeBFS, TreeStar, TreePath,
	} {
		tr, err := BuildTree(kind, g)
		if err != nil {
			t.Errorf("%v: %v", kind, err)
			continue
		}
		if tr.NumNodes() != 15 {
			t.Errorf("%v: %d nodes", kind, tr.NumNodes())
		}
	}
	if _, err := BuildTree(TreeKind(99), g); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestBuildTreeRejectsNonEmbeddable(t *testing.T) {
	// A cycle has no star spanning tree (center 0 lacks edges to all).
	g := graph.Cycle(6)
	if _, err := BuildTree(TreeStar, g); err == nil {
		t.Error("star tree on a cycle should fail embedding check")
	}
	// But path tree embeds in a cycle.
	if _, err := BuildTree(TreePath, g); err != nil {
		t.Errorf("path tree on cycle: %v", err)
	}
}

// TestFigureRowsShape: Figures 10 and 11 are views of the closed-loop
// baselines grid run with the {arrow, centralized} subset.
func TestFigureRowsShape(t *testing.T) {
	ns := []int{2, 8, 32}
	rows, err := figureRows(Params{Sizes: ns, PerNode: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(ns) {
		t.Fatalf("%d rows, want arrow and centralized per size", len(rows))
	}
	arrow, central := []BaselineRow{rows[0], rows[2], rows[4]}, []BaselineRow{rows[1], rows[3], rows[5]}
	// Figure 10's shape: centralized makespan grows ~linearly (x4 per
	// size step here), arrow's grows much slower.
	centralGrowth := float64(central[2].Makespan) / float64(central[0].Makespan)
	arrowGrowth := float64(arrow[2].Makespan) / float64(arrow[0].Makespan)
	if centralGrowth < 8 {
		t.Errorf("centralized growth %.1fx over 16x nodes, want >= 8x", centralGrowth)
	}
	if arrowGrowth > centralGrowth/2 {
		t.Errorf("arrow growth %.1fx should be far below centralized %.1fx", arrowGrowth, centralGrowth)
	}
	// Figure 11's range: around 1-2 hops per op under saturation.
	for _, r := range arrow {
		if r.Protocol != "arrow" || r.AvgQueueHops < 0 || r.AvgQueueHops > 4 {
			t.Errorf("%s n=%d: avg hops %.2f outside plausible range", r.Protocol, r.N, r.AvgQueueHops)
		}
	}
	// The views read the same numbers off the full four-protocol rows:
	// the regime is synchronous FIFO, so no cell draws from its seed.
	full, err := BaselinesClosedLoop(ns, 200, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []func([]BaselineRow) *Table{Fig10Table, Fig11Table} {
		got := view(rows)
		if len(got.Rows) != len(ns) || !strings.Contains(got.Title, "Figure 1") {
			t.Errorf("%q has %d rows, want %d", got.Title, len(got.Rows), len(ns))
		}
		if got.Render() != view(full).Render() {
			t.Errorf("%q differs between the two-protocol and the four-protocol rows", got.Title)
		}
	}
}

func TestRatioSweepStaysWithinTheoremBound(t *testing.T) {
	// Theorem 3.19 with the explicit constants of the proof gives
	// ratio <= (3·ceil(log2 3D)+1)·12·s·2-ish; we check the much
	// stronger empirical statement ratio <= s·log2(3D) which the sweep
	// satisfies comfortably — regression guard for protocol changes.
	for _, cfg := range DefaultRatioConfigs(3) {
		row, err := MeasureRatio(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Exact {
			continue
		}
		if row.Ratio > row.Bound {
			t.Errorf("%s/%s: ratio %.2f exceeds s*log2(3D) = %.2f",
				cfg.Name, cfg.WorkName, row.Ratio, row.Bound)
		}
		if row.Ratio < 1.0-1e-9 {
			t.Errorf("%s/%s: ratio %.2f below 1 — opt bound broken", cfg.Name, cfg.WorkName, row.Ratio)
		}
	}
}

func TestArrowOrderIsNearestNeighborSync(t *testing.T) {
	// Lemma 3.8, synchronous model: exhaustive check across many random
	// instances and arbitration policies.
	trial := 0
	for seed := int64(0); seed < 60; seed++ {
		n := 4 + int(seed%24)
		tr := tree.BalancedBinary(n)
		set := workload.Poisson(n, 0.7, sim.Time(2*n), seed)
		if len(set) == 0 {
			continue
		}
		for _, arb := range []sim.Arbitration{sim.ArbFIFO, sim.ArbLIFO, sim.ArbRandom} {
			trial++
			if err := CheckNNOrder(tr, set, arrow.Options{Root: 0, Arbitration: arb, Seed: seed}); err != nil {
				t.Fatalf("seed %d arb %v: %v", seed, arb, err)
			}
		}
	}
	if trial < 100 {
		t.Fatalf("only %d NN trials ran", trial)
	}
}

func TestArrowOrderIsNearestNeighborOnTrees(t *testing.T) {
	// Lemma 3.8 on varied tree shapes, not just balanced binary.
	for seed := int64(0); seed < 20; seed++ {
		g := graph.RandomGeometric(20, 0.4, 3, seed)
		tr, err := BuildTree(TreeMST, g)
		if err != nil {
			t.Fatal(err)
		}
		set := workload.Bursty(20, 4, 3, 15, seed)
		if err := CheckNNOrder(tr, set, arrow.Options{Root: tr.Root(), Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLongestEdgeBoundLemma313(t *testing.T) {
	// Lemma 3.13: the longest cT edge on arrow's path is <= 3D, after the
	// Lemma 3.11/3.12 time compression. Raw workloads here are already
	// dense enough that the bound holds directly.
	for seed := int64(0); seed < 25; seed++ {
		n := 15
		tr := tree.BalancedBinary(n)
		d := tr.Diameter()
		set := workload.Bursty(n, 5, 3, sim.Time(d), seed)
		res, err := arrow.Run(tr, set, arrow.Options{Root: 0})
		if err != nil {
			t.Fatal(err)
		}
		if mx := LongestEdgeCT(tr, set, 0, res.Order); mx > 3*d {
			t.Errorf("seed %d: longest cT edge %d exceeds 3D = %d", seed, mx, 3*d)
		}
	}
}

func TestVerifyNNOrderDetectsViolation(t *testing.T) {
	tr := tree.PathTree(6)
	set := queuing.NewSet([]queuing.Request{
		{Node: 1, Time: 0},
		{Node: 5, Time: 0},
	})
	// Root 0: NN order must serve node 1 first. The reversed order is a
	// violation VerifyNNOrder must flag.
	if err := VerifyNNOrder(tr, set, 0, queuing.Order{1, 0}); err == nil {
		t.Error("expected NN violation for reversed order")
	}
	if err := VerifyNNOrder(tr, set, 0, queuing.Order{0, 1}); err != nil {
		t.Errorf("correct order rejected: %v", err)
	}
	if err := VerifyNNOrder(tr, set, 0, queuing.Order{0}); err == nil {
		t.Error("expected permutation error")
	}
}

func TestLowerBoundSweepRuns(t *testing.T) {
	rows, err := LowerBoundSweep([]int{3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio < 1.0-1e-9 {
			t.Errorf("D=%d: ratio %.3f below 1", r.D, r.Ratio)
		}
		if r.CostArrow < int64(r.D) {
			t.Errorf("D=%d: arrow cost %d below D", r.D, r.CostArrow)
		}
	}
	if out := LowerBoundTable(rows).Render(); !strings.Contains(out, "Theorem 4.1") {
		t.Error("table malformed")
	}
}

func TestSequentialExperimentBounds(t *testing.T) {
	rows, err := SequentialExperiment([]int{8, 16}, 20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if int64(r.MaxHops) > r.D {
			t.Errorf("n=%d: sequential request used %d hops > D=%d", r.N, r.MaxHops, r.D)
		}
		if r.Ratio > r.S+1e-9 {
			t.Errorf("n=%d: sequential ratio %.3f exceeds stretch %.3f", r.N, r.Ratio, r.S)
		}
	}
}

func TestTreeChoiceExperiment(t *testing.T) {
	rows, err := TreeChoiceExperiment(16, 12, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// The path tree has the worst diameter; its cost should not beat the
	// balanced binary tree on a complete graph under this workload.
	var binCost, pathCost int64
	for _, r := range rows {
		switch r.Tree {
		case "balanced-binary":
			binCost = r.CostArrow
		case "path":
			pathCost = r.CostArrow
		}
	}
	// On small workloads the two can be close; flag only a dramatic
	// inversion (path tree should never halve the balanced tree's cost).
	if pathCost*2 < binCost {
		t.Errorf("path tree (%d) beat balanced binary (%d) by 2x — suspicious", pathCost, binCost)
	}
}

func TestArbitrationExperimentCompletes(t *testing.T) {
	rows, err := ArbitrationExperiment(31, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CostArrow <= 0 {
			t.Errorf("%s: cost %d", r.Arbitration, r.CostArrow)
		}
	}
}

func TestAsyncExperimentNormalization(t *testing.T) {
	rows, err := AsyncExperiment(16, 8, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NormalizedCost <= 0 {
			t.Errorf("%s: normalized cost %f", r.Model, r.NormalizedCost)
		}
	}
	// Async delays are at most the synchronous worst case, so total cost
	// cannot exceed sync by more than rounding effects.
	if rows[1].CostArrow > rows[0].CostArrow*2 {
		t.Errorf("async cost %d wildly exceeds sync %d", rows[1].CostArrow, rows[0].CostArrow)
	}
}

func TestStretchExperimentScaling(t *testing.T) {
	rows, err := StretchExperiment(3, []int{1, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].D != rows[0].D*4 {
		t.Errorf("stretch-4 diameter %d, want %d", rows[1].D, rows[0].D*4)
	}
	for _, r := range rows {
		if r.Ratio <= 0 {
			t.Errorf("s=%d: ratio %f", r.S, r.Ratio)
		}
	}
}

func TestAdversarialSearchFindsNontrivialRatio(t *testing.T) {
	r, err := AdversarialSearch(16, 8, 150, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.BestRatio < 1.2 {
		t.Errorf("search found only ratio %.3f, expected > 1.2 on D=16", r.BestRatio)
	}
	if len(r.BestSet) != 8 {
		t.Errorf("witness has %d requests", len(r.BestSet))
	}
	if out := AdversarialTable([]AdversarialResult{r}).Render(); !strings.Contains(out, "16") {
		t.Error("table malformed")
	}
}

func TestNNApproximationSweepWithinBound(t *testing.T) {
	rows, err := NNApproximationSweep([]int{6, 8}, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio > 2*r.Bound+2 {
			t.Errorf("NN ratio %.2f far exceeds theorem bound %.2f", r.Ratio, r.Bound)
		}
	}
}

// TestBaselinesClosedLoop: the four-protocol closed-loop grid completes
// every cell, splits queue from reply traffic, and reproduces the
// Section 5 contrast (centralized serialization vs the distributed
// protocols' flat makespan).
func TestBaselinesClosedLoop(t *testing.T) {
	ns := []int{2, 8, 24}
	const perNode = 150
	rows, err := BaselinesClosedLoop(ns, perNode, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ns)*4 {
		t.Fatalf("%d rows, want %d", len(rows), len(ns)*4)
	}
	byProto := map[string][]BaselineRow{}
	for _, r := range rows {
		if r.Requests != int64(r.N*perNode) {
			t.Errorf("%s n=%d: completed %d of %d", r.Protocol, r.N, r.Requests, r.N*perNode)
		}
		if r.AvgReplyHops <= 0 {
			t.Errorf("%s n=%d: missing reply traffic split", r.Protocol, r.N)
		}
		byProto[r.Protocol] = append(byProto[r.Protocol], r)
	}
	for _, p := range []string{"arrow", "nta", "centralized", "ivy"} {
		if len(byProto[p]) != len(ns) {
			t.Fatalf("protocol %s has %d rows, want %d", p, len(byProto[p]), len(ns))
		}
	}
	// Centralized's makespan must grow ~linearly with n; the distributed
	// protocols stay far flatter (the Figure 10 contrast).
	cGrowth := float64(byProto["centralized"][2].Makespan) / float64(byProto["centralized"][0].Makespan)
	for _, p := range []string{"arrow", "nta", "ivy"} {
		g := float64(byProto[p][2].Makespan) / float64(byProto[p][0].Makespan)
		if g > cGrowth/2 {
			t.Errorf("%s growth %.1fx not well below centralized %.1fx", p, g, cGrowth)
		}
	}
	if out := BaselinesClosedLoopTable(rows).Render(); !strings.Contains(out, "reply hops/op") {
		t.Error("baselines table missing reply hop column")
	}
}

// TestFlagFedExperimentsReturnErrors: per-node counts and object grids
// reach these experiments straight from arrowbench flags, so a bad one
// is an error to report — not a panic, and for the shard grid not a
// panic inside a sweep worker.
func TestFlagFedExperimentsReturnErrors(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		want []string
	}{
		{"fig10 and fig11", func() error { _, err := figureRows(Params{Sizes: []int{4}, Seed: 1}); return err }, []string{"PerNode must be >= 1"}},
		{"baselines", func() error { _, err := BaselinesClosedLoop([]int{4}, 0, 1, 0); return err }, []string{"PerNode must be >= 1"}},
		{"perf", func() error { _, err := PerfExperiment(PerfConfig{Sizes: []int{4}, Seed: 1}, 0); return err }, []string{"PerNode must be >= 1"}},
		{"churn", func() error {
			_, err := ChurnExperiment(ChurnConfig{N: 4, Rates: []float64{0, 1}, Seed: 1}, 0)
			return err
		}, []string{"PerNode must be >= 1"}},
		{"shard per-node", func() error { _, err := ShardExperiment(ShardConfig{}, 0); return err }, []string{"PerNode >= 1"}},
		{"shard one object under the default skews", func() error {
			_, err := ShardExperiment(ShardConfig{PerNode: 2, Objects: []int{1}}, 0)
			return err
		}, []string{"k=1", "s=1.1", "without Objects > 1"}},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, w)
			}
		}
	}
}

// TestTableRenderJSON: the JSON rendering round-trips title, headers and
// header-aligned row arrays.
func TestTableRenderJSON(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "b"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", "y")
	var doc struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(tbl.RenderJSON()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Title != "T" || len(doc.Headers) != 2 || len(doc.Rows) != 2 {
		t.Fatalf("document shape wrong: %+v", doc)
	}
	if doc.Rows[0][0] != "1" || doc.Rows[0][1] != "2.500" || doc.Rows[1][1] != "y" {
		t.Errorf("row cells wrong: %+v", doc.Rows)
	}
}

// TestTableRejectsRowOfWrongWidth: a row wider (or narrower) than the
// headers is refused by AddRow, with the table named, so Render — which
// used to index past its column widths on the wide row RenderJSON
// accepted — and RenderJSON never see a ragged table.
func TestTableRejectsRowOfWrongWidth(t *testing.T) {
	for _, cells := range [][]any{{1, 2}, {}} {
		tbl := &Table{Title: "ragged", Headers: []string{"a"}}
		tbl.AddRow("ok")
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, `table "ragged"`) || !strings.Contains(msg, "1 headers") {
					t.Errorf("AddRow(%v) under one header: recovered %q", cells, msg)
				}
			}()
			tbl.AddRow(cells...)
		}()
		if len(tbl.Rows) != 1 {
			t.Errorf("AddRow(%v) kept the row", cells)
		}
		if out := tbl.Render(); !strings.Contains(out, "ok") {
			t.Errorf("Render after the refused row: %q", out)
		}
		tbl.RenderJSON()
	}
}

// TestScaleDocumentHasNoDrainColumns pins schema v2: the parallel drain
// is gone, so the document carries none of its columns (a reader that
// still finds one is reading a v1 artifact), while the scheduler
// counters every row must carry are there.
func TestScaleDocumentHasNoDrainColumns(t *testing.T) {
	doc, err := ScaleExperiment(ScaleConfig{Sizes: []int{60}, PerNode: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "arrowbench/scale/v2" {
		t.Errorf("schema = %q", doc.Schema)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"workers", "window", "mean_batch", "lat_scale", "speedup"} {
		if strings.Contains(string(b), key) {
			t.Errorf("scale document still carries a %q field", key)
		}
	}
	for _, key := range []string{`"far_pushes"`, `"heap_pushes"`, `"refills"`} {
		if strings.Count(string(b), key) != len(doc.Rows) {
			t.Errorf("scale document does not carry %s once per row", key)
		}
	}
}

// TestScaleRowsRefillWhatTheyPark: every run drains its queue, so a
// push parked in a far wheel or the heap implies the refill that brings
// it back. n = 2000 puts the centralized coordinator's serve queue past
// the 512-tick ring, so the invariant is not vacuous.
func TestScaleRowsRefillWhatTheyPark(t *testing.T) {
	doc, err := ScaleExperiment(ScaleConfig{Sizes: []int{2000}, PerNode: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parked := false
	for _, r := range doc.Rows {
		if r.N <= 0 || r.Requests != int64(r.N)*int64(r.PerNode) || r.Events <= 0 {
			t.Errorf("%s/%s: n %d, %d requests (per-node %d), %d events", r.Protocol, r.Topology, r.N, r.Requests, r.PerNode, r.Events)
		}
		if r.FarPushes < 0 || r.HeapPushes < 0 || r.Refills < 0 {
			t.Errorf("%s/%s: negative scheduler counter: %+v", r.Protocol, r.Topology, r)
		}
		if r.FarPushes+r.HeapPushes > 0 {
			parked = true
			if r.Refills == 0 {
				t.Errorf("%s/%s: %d far and %d heap pushes but no refill", r.Protocol, r.Topology, r.FarPushes, r.HeapPushes)
			}
		}
	}
	if !parked {
		t.Error("no cell pushed past the ring; the refill invariant went unchecked")
	}
}
