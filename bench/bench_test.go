package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// smokeConfig runs one unit of each kind at the ≈1/200 smoke sizes.
func smokeConfig(seed int64, trace bool, outDir string) runConfig {
	return runConfig{
		seed: seed, seconds: 0, sz: smokeSizes(), trace: trace, outDir: outDir,
		host:     fingerprint{NProc: 2, GOMAXPROCS: 2, GoVersion: "test", CPUModel: "test", CalibrationNS: 1},
		minUnits: 1, setupReps: 1,
	}
}

// TestSmoke keeps every workload, probe, check and output path of the
// benchmark exercised by `go test` (also under -race): each workload
// runs an untraced and a traced pass at smoke scale, must pass its
// correctness checks, print every declared metric, and reproduce the
// untraced digest under the decorators.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				doc, tr, err := runWorkload(w, smokeConfig(1, traced, dir))
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d problems=%v",
						traced, doc.Correct, doc.Failed, doc.Attempted, doc.Problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(doc.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(doc.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := doc.Metrics[d.name]
					if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v (present=%v)", traced, d.name, v, ok)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if doc.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must be positive", d.name, doc.Metrics[d.name].Value)
						}
					}
				}
				digests[traced] = doc.SimDigest
				if _, err := doc.write(dir); err != nil {
					t.Fatal(err)
				}
				if traced {
					path, err := tr.write(dir)
					if err != nil {
						t.Fatal(err)
					}
					checkTraceFile(t, path, w)
				}
			}
			if w.simulated && (digests[false] == "" || digests[false] != digests[true]) {
				t.Errorf("untraced digest %q, traced digest %q", digests[false], digests[true])
			}
		})
	}
}

// checkTraceFile verifies the trace document's shape: spans nest under
// the workload span, every boundary the harness owns is present, and
// self times are consistent.
func checkTraceFile(t *testing.T, path string, w workload) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != traceSchema || doc.Workload != w.name || len(doc.SelfNS) != len(doc.Spans) {
		t.Fatalf("trace header: schema=%q workload=%q spans=%d self=%d", doc.Schema, doc.Workload, len(doc.Spans), len(doc.SelfNS))
	}
	seen := map[string]bool{}
	for i, s := range doc.Spans {
		seen[strings.SplitN(s.Name, ":", 2)[0]] = true
		if int(s.ID) != i || s.Parent >= s.ID || s.EndNS < s.StartNS || s.Workload != w.name {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if doc.SelfNS[i] < 0 || doc.SelfNS[i] > s.EndNS-s.StartNS {
			t.Fatalf("span %d self time %d outside [0, %d]", i, doc.SelfNS[i], s.EndNS-s.StartNS)
		}
	}
	for _, name := range []string{"workload", "setup", "warm-up", "unit", "prepare", "run"} {
		if !seen[name] {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// TestSeedChangesDigest: the inputs come from the seed, so a second seed
// must change what is simulated on every simulated workload.
func TestSeedChangesDigest(t *testing.T) {
	for _, w := range workloads {
		if !w.simulated {
			continue
		}
		a, _, err := runWorkload(w, smokeConfig(1, false, ""))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := runWorkload(w, smokeConfig(2, false, ""))
		if err != nil {
			t.Fatal(err)
		}
		if a.SimDigest == b.SimDigest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.name, a.SimDigest)
		}
	}
}

// TestOneCoreHostIsNotComparable: a host that cannot run two workers in
// parallel must say so instead of printing a number that looks
// comparable.
func TestOneCoreHostIsNotComparable(t *testing.T) {
	cfg := smokeConfig(1, false, "")
	cfg.host.NProc = 1
	w, _ := findWorkload("runtime-live")
	doc, _, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Comparable || !strings.Contains(doc.NotComparable, "nproc = 1") {
		t.Errorf("comparable=%v reason=%q", doc.Comparable, doc.NotComparable)
	}
	var out bytes.Buffer
	printDoc(&out, doc)
	if !strings.Contains(out.String(), "NOT COMPARABLE") {
		t.Errorf("output does not flag the run:\n%s", out.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 20, EndNS: 50}, // overlaps span 1: two workers
		{ID: 3, Parent: 0, StartNS: 60, EndNS: 70},
		{ID: 4, Parent: 2, StartNS: 25, EndNS: 45},
		{ID: 5, Parent: 0, StartNS: 90, EndNS: 120}, // sticks out of its parent
	}
	want := []int64{100 - (40 + 10 + 10), 20, 10, 10, 20, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestPercentileRule: a percentile is quoted only with at least ten
// samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{19, 50, 9}, {20, 50, 10}, {1000, 99, 10}, {1000, 99.9, 1},
		{80_000, 99.9, 80}, {80_000, 99.99, 8}, {800_000, 99.99, 80},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quotable(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := quotable(xs, 99.9); got != 0 {
		t.Errorf("p99.9 of 1000 samples = %v, want 0 (one sample beyond)", got)
	}
	if got := quotable(xs[:19], 50); got != 0 {
		t.Errorf("median of 19 samples = %v, want 0 (nine samples beyond)", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the rule the acceptance check applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestSampledTimer: the counting is exact, one call in sampleEvery is
// timed, and a layer wrapped around a no-op reads as (nearly) free once
// the calibrated clock cost is subtracted.
func TestSampledTimer(t *testing.T) {
	for _, shared := range []bool{false, true} {
		tr := newTracer("test", shared)
		if tr.clockNS <= 0 {
			t.Fatalf("shared=%v: clock cost %v, want positive", shared, tr.clockNS)
		}
		l := tr.layer("nop")
		const calls = 1 << 20
		var f identity = nop{}
		parent := noSpan
		for i := uint(0); i < calls; i++ {
			if l.tick(i) {
				t0 := tr.stamp()
				sink += uint64(f.id(i))
				l.sample(t0, parent)
			}
		}
		st := tr.stat("nop")
		if st.calls != calls {
			t.Errorf("shared=%v: counted %d calls, want %d", shared, st.calls, calls)
		}
		// Interrupted samples are dropped, so a few may be missing.
		if st.samples > calls/sampleEvery || st.samples < calls/sampleEvery*9/10 {
			t.Errorf("shared=%v: %d samples of %d calls, want about one in %d", shared, st.samples, calls, sampleEvery)
		}
		if perCall := st.busyS * 1e9 / calls; perCall > math.Max(30, tr.clockNS) {
			t.Errorf("shared=%v: a no-op reads as %.1f ns per call after subtracting %.1f ns of clock", shared, perCall, tr.clockNS)
		}
		if kept := len(tr.spans); kept > maxSampledSpans {
			t.Errorf("kept %d sampled spans, budget is %d", kept, maxSampledSpans)
		}
	}
	if got := busyEstimate(10, 40, 1000); got != 0 {
		t.Errorf("a layer cheaper than the clock must read 0, got %v", got)
	}
	if got := busyEstimate(140, 40, 1e6); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("busyEstimate = %v, want 0.1", got)
	}
}

// TestWrappersAreTransparent: a run through the decorators produces the
// same Result as a bare run, for every interface the traced pass wraps.
func TestWrappersAreTransparent(t *testing.T) {
	const n, perNode = 127, 30
	parent := noSpan
	tr := newTracer("test", false)

	t.Run("Nav", func(t *testing.T) {
		nav := tree.BinaryWalker(n)
		cfg := arrow.LoopConfig{Spec: loop.Spec{PerNode: perNode, Seed: 7}, Root: 5}
		bare, err := arrow.RunClosedLoop(nav, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := arrow.RunClosedLoop(wrapNav(tr, nav, &parent), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, wrapped) {
			t.Errorf("bare %+v\nwrapped %+v", bare, wrapped)
		}
		if tr.stat(layerNav).calls == 0 {
			t.Error("the Nav decorator counted no calls")
		}
	})

	t.Run("Topology", func(t *testing.T) {
		topo := sim.NewCompleteTopology(n)
		cfg := centralized.LoopConfig{Spec: loop.Spec{PerNode: perNode, Seed: 7, Latency: sim.AsyncUniform(4)}, Center: 3}
		bare, err := centralized.RunClosedLoopTopo(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wrappedTopo := wrapTopology(tr, topo, &parent)
		if _, ok := wrappedTopo.(sim.LinkIndexer); !ok {
			t.Fatal("the decorator of a LinkIndexer topology must be a LinkIndexer")
		}
		wrapped, err := centralized.RunClosedLoopTopo(wrappedTopo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, wrapped) {
			t.Errorf("bare %+v\nwrapped %+v", bare, wrapped)
		}
		if _, ok := wrapTopology(tr, sim.DirectTopology{G: graph.Complete(4)}, &parent).(sim.LinkIndexer); ok {
			t.Error("the decorator of a plain topology must not claim to index links")
		}
	})

	t.Run("StepperAndRecorder", func(t *testing.T) {
		run := func(wrap bool) ([]*shard.Result, []stats.Dist) {
			topo := sim.Topology(sim.NewCompleteTopology(n))
			names, steps, err := shardSteppers(n, 8)
			if err != nil {
				t.Fatal(err)
			}
			var results []*shard.Result
			var dists []stats.Dist
			for i, step := range steps {
				rec := stats.NewDistRecorder()
				var r stats.Recorder = rec
				if wrap {
					if _, ok := wrapStepper(tr, step, &parent).(shard.ShardSafe); !ok {
						t.Fatalf("%s: the decorator dropped the ShardSafe marker", names[i])
					}
					topo, step, r = wrapTopology(tr, topo, &parent), wrapStepper(tr, step, &parent), wrapRecorder(tr, rec, &parent)
				}
				res, err := shard.Run(topo, step, names[i], shard.Spec{
					Spec:    loop.Spec{PerNode: perNode, LinkTxTime: 1, Seed: 7, Recorder: r},
					Objects: 8, Skew: 1.1,
				})
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
				dists = append(dists, rec.Latency.Snapshot(), rec.Hops.Snapshot())
			}
			return results, dists
		}
		bareRes, bareDist := run(false)
		wrapRes, wrapDist := run(true)
		if !reflect.DeepEqual(bareRes, wrapRes) || !reflect.DeepEqual(bareDist, wrapDist) {
			t.Error("wrapped shard runs differ from bare runs")
		}
		if tr.stat(layerStep).calls == 0 || tr.stat(layerRecord).calls == 0 {
			t.Error("the Stepper or Recorder decorator counted no calls")
		}
	})
}

func TestCheckChain(t *testing.T) {
	good := []link{{7, 3}, {3, -1}, {9, 7}}
	if err := checkChain(good); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	for name, bad := range map[string][]link{
		"fork":      {{3, -1}, {7, 3}, {9, 3}},
		"no root":   {{7, 3}, {9, 7}},
		"gap":       {{3, -1}, {9, 7}},
		"duplicate": {{3, -1}, {7, 3}, {3, 7}},
	} {
		if err := checkChain(bad); err == nil {
			t.Errorf("%s: invalid chain accepted", name)
		}
	}
}

func TestJudge(t *testing.T) {
	s := func(xs ...float64) side { return summarise(xs) }
	for _, c := range []struct {
		name   string
		a, b   side
		better string
		bound  float64
		want   string
	}{
		{"same within bound", s(100, 101, 99), s(97, 98, 99), higher, 0.1, verdictSame},
		{"throughput fell", s(100, 101, 99), s(85, 86, 84), higher, 0.1, verdictWorse},
		{"throughput rose", s(100, 101, 99), s(120, 121, 119), higher, 0.1, verdictBetter},
		{"memory grew", s(50, 50, 50), s(60, 60, 60), lower, 0.1, verdictWorse},
		{"memory shrank", s(50, 51, 49), s(40, 41, 39), lower, 0.1, verdictBetter},
		{"too noisy to tell", s(100, 140, 60, 100), s(95, 135, 55, 95), higher, 0.1, verdictUnresolved},
		{"noisy but every run better", s(100, 140, 60), s(200, 240, 160), higher, 0.1, verdictBetter},
		{"single runs", s(100), s(80), higher, 0.1, verdictWorse},
	} {
		if got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompare drives `bench --compare` end to end: a result set against
// itself is clean (the A/A check); a slower set or a changed digest fails
// the command; runs pool within a seed only; sequential sets are flagged.
func TestCompare(t *testing.T) {
	bounds := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[
		{"name":"requests_per_sec","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	started := int64(0)
	write := func(dir string, seed int64, digest string, rps ...float64) string {
		for _, v := range rps {
			started++
			d := resultDoc{Schema: resultSchema, Workload: "paper-grid", Seed: seed, StartedNS: started, Comparable: true, SimDigest: digest}
			d.Correct = true
			d.Metrics = map[string]value{"requests_per_sec": {v, "1/s"}, "setup_s": {0.3, "s"}}
			if _, err := d.write(dir); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	compare := func(a, b string) (int, string) {
		var out bytes.Buffer
		code := realMain([]string{"--compare", "--benchmark", bounds, a, b}, &out, &out)
		return code, out.String()
	}
	a := write(t.TempDir(), 1, "abc", 100, 101, 99)
	code, out := compare(a, a)
	if code != 0 || strings.Contains(out, verdictWorse) || strings.Contains(out, verdictUnresolved) ||
		!strings.Contains(out, "identical") || strings.Contains(out, "not interleaved") {
		t.Errorf("A/A comparison exited %d and is not clean:\n%s", code, out)
	}
	if code, out := compare(a, write(t.TempDir(), 1, "abc", 80, 81, 79)); code != 1 || !strings.Contains(out, verdictWorse) || !strings.Contains(out, "not interleaved") {
		t.Errorf("comparison against a slower, later set exited %d, want 1 with a flagged worse row:\n%s", code, out)
	}
	if code, out := compare(a, write(t.TempDir(), 1, "abd", 100, 101, 99)); code != 1 || !strings.Contains(out, "CHANGED") {
		t.Errorf("comparison against a changed digest exited %d, want 1:\n%s", code, out)
	}
	// A slow seed 2 on one side only is reported, not pooled into seed 1.
	mixed := write(write(t.TempDir(), 1, "abc", 100, 101, 99), 2, "xyz", 50, 51, 49)
	if code, out := compare(a, mixed); code != 0 || !strings.Contains(out, "seed=2: only in B") {
		t.Errorf("comparison against a set with an extra seed exited %d:\n%s", code, out)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the benchmark in
// step: same workloads, same metrics with the same units and directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s metric %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths=%v run_seconds=%d", doc.Paths, doc.RunSeconds)
	}
}
