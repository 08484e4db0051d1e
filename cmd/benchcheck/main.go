// Command benchcheck is the CI benchmark-regression gate. It performs
// two independent checks and exits non-zero if either fails:
//
//   - -bench FILE: parse `go test -bench` output and require that every
//     BenchmarkSimSendDispatch sub-benchmark reports 0 allocs/op — the
//     simulator's zero-alloc send/dispatch invariant (run the benchmarks
//     with -benchmem, or no allocs/op column is emitted and the check
//     fails as "not found").
//
//   - -baseline FILE -current FILE: compare two arrowbench/perf
//     documents (`arrowbench -exp perf -json`, the BENCH_perf.json
//     arrowbench/perf/v2 schema) row by row and fail when a pinned
//     metric regresses more than -tol (default 20%). The pinned metrics
//     — makespan, the per-cell simulator event count, and the
//     latency/hop distribution quantiles — are simulated quantities,
//     deterministic for a fixed config, so unlike wall-clock ns/op they
//     gate reliably on shared CI runners; the tolerance only leaves room
//     for deliberate small semantic changes. The v2 events_per_sec
//     throughput field is deliberately NOT gated: it is wall-clock and
//     would flake on shared runners. Config or schema mismatch between
//     the documents fails immediately: a delta between runs with
//     different parameters is noise.
//
//   - -hotpath DIR (with -bench): cross-check the //arrow:hotpath
//     annotations in the source tree against the benchmarks that
//     actually ran. Every annotated package must map, through the
//     hotpathBenchmarks manifest, to a benchmark present in the bench
//     output — so a hot-path claim without a measurement, a stale
//     manifest entry, or a benchmark silently dropped from the sweep
//     all fail CI.
//
//   - -scale FILE: structurally validate an arrowbench/scale document
//     (`arrowbench -exp scale -json`): the schema string must match
//     analysis.ScaleSchema, the row set must be non-empty, and every
//     row must report positive node/request/event counts and carry the
//     scheduler work counters (far_pushes, heap_pushes, refills). The scale
//     numbers themselves (bytes/node, events/s) are machine-dependent,
//     so this check gates the document's shape, never its values —
//     regressions of the memory property are pinned by the repo's own
//     TestScaleBytesPerNodeFlat instead.
//
//   - -shard FILE: structurally validate an arrowbench/shard document
//     (`arrowbench -exp shard -json`): schema match, non-empty rows,
//     positive counts, per-row conservation (every object's request
//     share summing through the fairness bounds), and ordered fairness
//     extremes (min <= p99 <= max). Shard metrics are fully simulated
//     and deterministic; the cross-worker byte-identity of the document
//     itself is pinned by the repo's TestShardDocumentWorkerIdentity,
//     so this gate checks the shape CI captured as an artifact.
//
// Usage (what CI runs):
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem ./... | tee bench.txt
//	go test -run '^$' -bench BenchmarkSimSendDispatch -benchtime 200000x -benchmem . | tee -a bench.txt
//	arrowbench -exp perf -json -sizes 64,76 -pernode 500 -seed 1 > BENCH_perf.ci.json
//	arrowbench -exp scale -json -sizes 2000,5000 -pernode 20 -seed 1 > BENCH_scale.ci.json
//	arrowbench -exp shard -json -pernode 50 -seed 1 > BENCH_shard.ci.json
//	benchcheck -bench bench.txt -hotpath . -baseline BENCH_perf.json -current BENCH_perf.ci.json -scale BENCH_scale.ci.json -shard BENCH_shard.ci.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// allocBenchmark is the benchmark whose allocs/op must stay zero.
const allocBenchmark = "BenchmarkSimSendDispatch"

func main() {
	benchPath := flag.String("bench", "", "go test -bench output to check for the zero-alloc invariant")
	basePath := flag.String("baseline", "", "committed arrowbench/perf baseline document")
	curPath := flag.String("current", "", "freshly generated arrowbench/perf document")
	scalePath := flag.String("scale", "", "arrowbench/scale document to validate structurally")
	shardPath := flag.String("shard", "", "arrowbench/shard document to validate structurally")
	hotpathRoot := flag.String("hotpath", "", "repo root to cross-check //arrow:hotpath annotations against the bench output (requires -bench)")
	tol := flag.Float64("tol", 0.20, "allowed relative regression of pinned metrics")
	flag.Parse()

	if *hotpathRoot != "" && *benchPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -hotpath needs -bench to know which benchmarks ran")
		os.Exit(2)
	}
	if *benchPath == "" && *scalePath == "" && *shardPath == "" && (*basePath == "" || *curPath == "") {
		fmt.Fprintln(os.Stderr, "benchcheck: nothing to do; pass -bench, -scale, -shard and/or -baseline with -current")
		os.Exit(2)
	}
	failed := false
	if *benchPath != "" {
		if err := checkBenchFile(*benchPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			failed = true
		} else {
			fmt.Printf("benchcheck: %s allocs/op is zero\n", allocBenchmark)
		}
	}
	if *hotpathRoot != "" {
		if err := checkHotpathCoverage(*hotpathRoot, *benchPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			failed = true
		} else {
			fmt.Printf("benchcheck: every //arrow:hotpath package is covered by the bench set\n")
		}
	}
	if *basePath != "" || *curPath != "" {
		if *basePath == "" || *curPath == "" {
			fmt.Fprintln(os.Stderr, "benchcheck: -baseline and -current must be given together")
			os.Exit(2)
		}
		base, err := loadPerfDoc(*basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadPerfDoc(*curPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		regressions := comparePerf(base, cur, *tol)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "benchcheck: %s\n", r)
		}
		if len(regressions) > 0 {
			failed = true
		} else {
			fmt.Printf("benchcheck: %d perf rows within %.0f%% of baseline\n",
				len(base.Rows), *tol*100)
		}
	}
	if *scalePath != "" {
		if err := checkScaleFile(*scalePath); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			failed = true
		} else {
			fmt.Printf("benchcheck: scale document %s is well-formed\n", *scalePath)
		}
	}
	if *shardPath != "" {
		if err := checkShardFile(*shardPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			failed = true
		} else {
			fmt.Printf("benchcheck: shard document %s is well-formed\n", *shardPath)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkShardFile validates an arrowbench/shard document: right schema,
// non-empty rows, positive counts, conservation of each row's requests
// against its fairness bounds, and ordered fairness extremes. All shard
// metrics are simulated and deterministic, but this gate still checks
// only invariants, not values — value changes are deliberate baseline
// updates, not CI failures.
func checkShardFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc analysis.ShardDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if doc.Schema != analysis.ShardSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, analysis.ShardSchema)
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("%s: no rows", path)
	}
	for i, r := range doc.Rows {
		id := fmt.Sprintf("%s row %d (%s/k=%d/s=%g)", path, i, r.Protocol, r.Objects, r.Skew)
		if r.Protocol == "" {
			return fmt.Errorf("%s row %d: missing protocol", path, i)
		}
		if r.N <= 0 || r.Objects <= 0 || r.Requests <= 0 || r.Events <= 0 {
			return fmt.Errorf("%s: non-positive n/objects/requests/events (%d/%d/%d/%d)",
				id, r.N, r.Objects, r.Requests, r.Events)
		}
		if r.Requests != int64(r.N)*int64(r.PerNode) {
			return fmt.Errorf("%s: %d requests completed, workload issued %d",
				id, r.Requests, int64(r.N)*int64(r.PerNode))
		}
		if r.Latency.Count != r.Requests {
			return fmt.Errorf("%s: latency distribution counted %d of %d requests",
				id, r.Latency.Count, r.Requests)
		}
		f := r.Fairness
		if f.Objects != r.Objects {
			return fmt.Errorf("%s: fairness ranges over %d objects", id, f.Objects)
		}
		if f.MinRequests > f.MaxRequests ||
			f.MinRequests*int64(f.Objects) > r.Requests ||
			f.MaxRequests*int64(f.Objects) < r.Requests {
			return fmt.Errorf("%s: fairness request bounds [%d, %d] cannot partition %d requests over %d objects",
				id, f.MinRequests, f.MaxRequests, r.Requests, f.Objects)
		}
		if f.MinAvgLatency > f.P99AvgLatency || f.P99AvgLatency > f.MaxAvgLatency {
			return fmt.Errorf("%s: fairness latency extremes unordered (min %g, p99 %g, max %g)",
				id, f.MinAvgLatency, f.P99AvgLatency, f.MaxAvgLatency)
		}
	}
	return nil
}

// checkScaleFile validates an arrowbench/scale document's shape: right
// schema, non-empty rows, positive counts, scheduler counters present
// and consistent. Values are machine-dependent and never gated here.
func checkScaleFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc analysis.ScaleDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if doc.Schema != analysis.ScaleSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, analysis.ScaleSchema)
	}
	if len(doc.Rows) == 0 {
		return fmt.Errorf("%s: no rows", path)
	}
	var raw struct {
		Rows []map[string]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	for i, r := range doc.Rows {
		if r.Protocol == "" || r.Topology == "" {
			return fmt.Errorf("%s: row %d: missing protocol/topology", path, i)
		}
		if r.N <= 0 || r.Requests <= 0 || r.Events <= 0 {
			return fmt.Errorf("%s: row %d (%s/%s): non-positive n/requests/events (%d/%d/%d)",
				path, i, r.Protocol, r.Topology, r.N, r.Requests, r.Events)
		}
		// Scheduler work counters: required (a document from before they
		// existed decodes them as zero, so presence is checked on the raw
		// row), never negative, and far pushes imply the refills that
		// bring them back — every run drains its queue.
		for _, key := range []string{"far_pushes", "heap_pushes", "refills"} {
			if _, ok := raw.Rows[i][key]; !ok {
				return fmt.Errorf("%s: row %d (%s/%s): missing scheduler counter %q",
					path, i, r.Protocol, r.Topology, key)
			}
		}
		if r.FarPushes < 0 || r.HeapPushes < 0 || r.Refills < 0 {
			return fmt.Errorf("%s: row %d (%s/%s): negative scheduler counter (far_pushes %d, heap_pushes %d, refills %d)",
				path, i, r.Protocol, r.Topology, r.FarPushes, r.HeapPushes, r.Refills)
		}
		if r.FarPushes+r.HeapPushes > 0 && r.Refills == 0 {
			return fmt.Errorf("%s: row %d (%s/%s): %d far and %d heap pushes but no refill",
				path, i, r.Protocol, r.Topology, r.FarPushes, r.HeapPushes)
		}
	}
	return nil
}

// checkBenchFile enforces the zero-alloc invariant on a go test -bench
// output file.
func checkBenchFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return checkBenchOutput(f)
}

// benchMeasure is one parsed benchmark result line.
type benchMeasure struct {
	iters  int64
	allocs float64
}

// checkBenchOutput scans go test -bench output for allocBenchmark
// sub-benchmarks and fails if any reports non-zero allocs/op at steady
// state, or if no steady-state measurement is found (the invariant
// cannot be confirmed). Zero allocs/op is a steady-state property —
// one-shot heap growth and setup amortize away over iterations — so
// when the same sub-benchmark appears several times (CI appends a
// high-iteration run to the 1x smoke sweep), only the measurement with
// the most iterations counts, and a lone b.N=1 measurement is rejected.
func checkBenchOutput(r io.Reader) error {
	best := map[string]benchMeasure{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Match the exact benchmark (its name continues with the
		// sub-benchmark separator '/' or the GOMAXPROCS suffix '-'), not
		// any benchmark sharing the prefix.
		rest, ok := strings.CutPrefix(line, allocBenchmark)
		if !ok || (rest != "" && rest[0] != '/' && rest[0] != '-' && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f != "allocs/op" || i == 0 {
				continue
			}
			allocs, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return fmt.Errorf("%s: cannot parse allocs/op in %q: %v", fields[0], line, err)
			}
			iters := int64(1)
			if len(fields) > 1 {
				if v, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					iters = v
				}
			}
			if m, ok := best[fields[0]]; !ok || iters > m.iters {
				best[fields[0]] = benchMeasure{iters: iters, allocs: allocs}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(best) == 0 {
		return fmt.Errorf("no %s allocs/op measurement found (run benchmarks with -benchmem)", allocBenchmark)
	}
	var bad []string
	steady := false
	for name, m := range best {
		if m.iters > 1 {
			steady = true
		}
		if m.allocs != 0 {
			bad = append(bad, fmt.Sprintf("%s reports %g allocs/op over %d iterations, want 0", name, m.allocs, m.iters))
		}
	}
	if !steady {
		return fmt.Errorf("only b.N=1 %s measurements found; zero allocs/op needs a steady-state run (e.g. -benchtime 200000x)", allocBenchmark)
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("zero-alloc invariant broken: %s", strings.Join(bad, "; "))
	}
	return nil
}

func loadPerfDoc(path string) (analysis.PerfDoc, error) {
	var doc analysis.PerfDoc
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %v", path, err)
	}
	return doc, nil
}

// rowKey identifies a perf row across documents.
func rowKey(r analysis.PerfDocRow) string {
	return fmt.Sprintf("%s/n=%d/%s", r.Protocol, r.N, r.Workload)
}

// comparePerf returns one message per regression of a pinned metric —
// current worse than baseline by more than tol relative (with one unit
// of absolute slack, so a 1-vs-2 time-unit quantile is not a 100%
// regression) — plus messages for structural mismatches (schema,
// config, missing rows), which are always failures.
func comparePerf(base, cur analysis.PerfDoc, tol float64) []string {
	var msgs []string
	if base.Schema != cur.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %q vs current %q", base.Schema, cur.Schema)}
	}
	if !configEqual(base.Config, cur.Config) {
		return []string{fmt.Sprintf("config mismatch: baseline %+v vs current %+v (regenerate the baseline with the same flags)",
			base.Config, cur.Config)}
	}
	curRows := make(map[string]analysis.PerfDocRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[rowKey(r)] = r
	}
	for _, b := range base.Rows {
		c, ok := curRows[rowKey(b)]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: row missing from current document", rowKey(b)))
			continue
		}
		if c.Requests != b.Requests {
			msgs = append(msgs, fmt.Sprintf("%s: completed %d requests, baseline %d", rowKey(b), c.Requests, b.Requests))
		}
		// Integer quantiles get one simulated time unit of absolute
		// slack (1 -> 2 is +100% but one bucket); means are fine-grained
		// floats where that slack would hide large regressions on
		// small-valued rows, so they get only the relative tolerance.
		// events_per_sec is intentionally absent: wall-clock throughput
		// is informational, not a gate.
		for _, m := range []struct {
			name      string
			base, cur float64
			slack     float64
		}{
			{"makespan", float64(b.Makespan), float64(c.Makespan), 1},
			{"events", float64(b.Events), float64(c.Events), 1},
			{"latency.p50", float64(b.Latency.P50), float64(c.Latency.P50), 1},
			{"latency.p90", float64(b.Latency.P90), float64(c.Latency.P90), 1},
			{"latency.p99", float64(b.Latency.P99), float64(c.Latency.P99), 1},
			{"latency.p999", float64(b.Latency.P999), float64(c.Latency.P999), 1},
			{"latency.max", float64(b.Latency.Max), float64(c.Latency.Max), 1},
			{"latency.mean", b.Latency.Mean, c.Latency.Mean, 1e-9},
			{"hops.p99", float64(b.Hops.P99), float64(c.Hops.P99), 1},
			{"hops.max", float64(b.Hops.Max), float64(c.Hops.Max), 1},
			{"hops.mean", b.Hops.Mean, c.Hops.Mean, 1e-9},
		} {
			if m.cur > m.base*(1+tol)+m.slack {
				msgs = append(msgs, fmt.Sprintf("%s: %s regressed %.3f -> %.3f (>%.0f%%)",
					rowKey(b), m.name, m.base, m.cur, tol*100))
			}
		}
	}
	return msgs
}

func configEqual(a, b analysis.PerfConfig) bool {
	if a.PerNode != b.PerNode || a.Seed != b.Seed || len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			return false
		}
	}
	return true
}
