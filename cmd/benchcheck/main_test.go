package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/stats"
)

const goodBench = `goos: linux
BenchmarkSimSendDispatch/binary-8         5000000   214.0 ns/op   0 B/op   0 allocs/op
BenchmarkSimSendDispatch/star-8           5000000   120.0 ns/op   0 B/op   0 allocs/op
BenchmarkFig10Arrow/n=2-8                 1         83000 ns/op
PASS
`

const badBench = `BenchmarkSimSendDispatch/binary-8   5000000   214.0 ns/op   16 B/op   3 allocs/op
PASS
`

func TestCheckBenchOutput(t *testing.T) {
	if err := checkBenchOutput(strings.NewReader(goodBench)); err != nil {
		t.Errorf("clean output failed: %v", err)
	}
	if err := checkBenchOutput(strings.NewReader(badBench)); err == nil {
		t.Error("3 allocs/op passed the zero-alloc gate")
	}
	if err := checkBenchOutput(strings.NewReader("PASS\n")); err == nil {
		t.Error("missing benchmark passed the gate")
	}
	// Without -benchmem there is no allocs/op column: the invariant is
	// unconfirmed and must fail.
	noMem := "BenchmarkSimSendDispatch/binary-8  5000000  214.0 ns/op\nPASS\n"
	if err := checkBenchOutput(strings.NewReader(noMem)); err == nil {
		t.Error("output without allocs/op column passed the gate")
	}
	// A lone b.N=1 measurement cannot confirm the steady-state property.
	oneShot := "BenchmarkSimSendDispatch/binary-8  1  152232 ns/op  80392 B/op  10 allocs/op\nPASS\n"
	if err := checkBenchOutput(strings.NewReader(oneShot)); err == nil {
		t.Error("b.N=1-only measurement passed the gate")
	}
	// When both the 1x smoke line and a steady-state line are present
	// (CI appends the latter), only the higher-iteration one counts.
	both := oneShot + "BenchmarkSimSendDispatch/binary-8  200000  120.0 ns/op  0 B/op  0 allocs/op\nPASS\n"
	if err := checkBenchOutput(strings.NewReader(both)); err != nil {
		t.Errorf("steady-state zero-alloc line did not override the 1x smoke line: %v", err)
	}
	// A different benchmark sharing the name prefix is not conscripted
	// into the invariant.
	prefixed := goodBench + "BenchmarkSimSendDispatchBatched-8  200000  300.0 ns/op  64 B/op  2 allocs/op\nPASS\n"
	if err := checkBenchOutput(strings.NewReader(prefixed)); err != nil {
		t.Errorf("prefix-sharing benchmark pulled into the gate: %v", err)
	}
}

func perfDoc() analysis.PerfDoc {
	return analysis.PerfDoc{
		Schema: analysis.PerfSchema,
		Config: analysis.PerfConfig{Sizes: []int{64, 76}, PerNode: 500, Seed: 1},
		Rows: []analysis.PerfDocRow{
			{
				Protocol: "arrow", N: 64, Workload: "saturated", Requests: 32000, Makespan: 900,
				Events: 120000, EventsPerSec: 4.2e6,
				Latency: stats.Dist{Count: 32000, Mean: 1.5, P50: 1, P90: 3, P99: 5, P999: 7, Max: 9},
				Hops:    stats.Dist{Count: 32000, Mean: 1.5, P50: 1, P90: 3, P99: 5, P999: 7, Max: 9},
			},
			{
				Protocol: "centralized", N: 64, Workload: "saturated", Requests: 32000, Makespan: 64000,
				Events: 128000, EventsPerSec: 5.7e6,
				Latency: stats.Dist{Count: 32000, Mean: 60, P50: 62, P90: 63, P99: 63, P999: 64, Max: 64},
				Hops:    stats.Dist{Count: 32000, Mean: 0.98, P50: 1, P90: 1, P99: 1, P999: 1, Max: 1},
			},
		},
	}
}

func TestComparePerfIdentical(t *testing.T) {
	if msgs := comparePerf(perfDoc(), perfDoc(), 0.2); len(msgs) != 0 {
		t.Errorf("identical documents regressed: %v", msgs)
	}
}

func TestComparePerfRegression(t *testing.T) {
	cur := perfDoc()
	cur.Rows[0].Latency.P99 = 100 // 5 -> 100: way past 20% + slack
	msgs := comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "latency.p99") {
		t.Errorf("p99 regression not caught: %v", msgs)
	}
}

func TestComparePerfSmallSlack(t *testing.T) {
	// One simulated time unit of jitter on a tiny quantile is not a
	// regression (1 -> 2 is +100% but within the absolute slack).
	cur := perfDoc()
	cur.Rows[0].Latency.P50 = 2
	if msgs := comparePerf(perfDoc(), cur, 0.2); len(msgs) != 0 {
		t.Errorf("one-unit quantile jitter flagged: %v", msgs)
	}
}

func TestComparePerfMeanHasNoAbsoluteSlack(t *testing.T) {
	// Means are fine-grained floats: the quantiles' one-unit slack must
	// not hide a large relative regression on a small-valued mean
	// (0.98 -> 2.17 is +122%).
	cur := perfDoc()
	cur.Rows[1].Hops.Mean = 2.17
	msgs := comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "hops.mean") {
		t.Errorf("small-valued mean regression not caught: %v", msgs)
	}
}

func TestComparePerfImprovementPasses(t *testing.T) {
	cur := perfDoc()
	cur.Rows[1].Makespan = 100 // got faster: never a failure
	cur.Rows[1].Latency.Mean = 1
	if msgs := comparePerf(perfDoc(), cur, 0.2); len(msgs) != 0 {
		t.Errorf("improvement flagged as regression: %v", msgs)
	}
}

func TestComparePerfMissingRow(t *testing.T) {
	cur := perfDoc()
	cur.Rows = cur.Rows[:1]
	msgs := comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "missing") {
		t.Errorf("missing row not caught: %v", msgs)
	}
}

func TestComparePerfConfigMismatch(t *testing.T) {
	cur := perfDoc()
	cur.Config.PerNode = 1000
	msgs := comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "config mismatch") {
		t.Errorf("config mismatch not caught: %v", msgs)
	}
	cur = perfDoc()
	cur.Schema = "arrowbench/perf/v1"
	msgs = comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "schema mismatch") {
		t.Errorf("schema mismatch not caught: %v", msgs)
	}
}

func TestComparePerfEventCountGated(t *testing.T) {
	// The per-cell event count is deterministic, so a blow-up (a
	// protocol or scheduler change doing more work per request) is a
	// gated regression like makespan.
	cur := perfDoc()
	cur.Rows[0].Events = 200000 // +67%
	msgs := comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "events") {
		t.Errorf("event-count regression not caught: %v", msgs)
	}
}

func TestComparePerfThroughputNotGated(t *testing.T) {
	// events_per_sec is wall clock: halving it on a shared CI runner is
	// noise, never a failure.
	cur := perfDoc()
	for i := range cur.Rows {
		cur.Rows[i].EventsPerSec /= 2
	}
	if msgs := comparePerf(perfDoc(), cur, 0.2); len(msgs) != 0 {
		t.Errorf("wall-clock throughput drop flagged: %v", msgs)
	}
}

func shardDoc() analysis.ShardDoc {
	return analysis.ShardDoc{
		Schema: analysis.ShardSchema,
		Config: analysis.ShardDocConfig{N: 32, PerNode: 50, Objects: []int{16}, Skews: []float64{0}, Seed: 1, LinkTxTime: 1},
		Rows: []analysis.ShardDocRow{
			{
				Protocol: "arrow", N: 32, Objects: 16, Skew: 0, PerNode: 50,
				Requests: 1600, QueueHops: 6400, Events: 20000, Makespan: 500,
				Latency: stats.Dist{Count: 1600, Mean: 4, P50: 4, P99: 9, Max: 12},
				Hops:    stats.Dist{Count: 1600, Mean: 4, P50: 4, P99: 9, Max: 12},
				Fairness: engine.Fairness{
					Objects: 16, MinRequests: 90, MaxRequests: 110,
					MinAvgLatency: 3.5, MaxAvgLatency: 4.5, P99AvgLatency: 4.4,
					MinAvailability: 1, MaxAvailability: 1, P1Availability: 1,
				},
			},
		},
	}
}

// TestCheckShardFile covers the shard document's structural gate: a
// well-formed document passes, and each invariant violation fails with
// a message naming the broken property.
func TestCheckShardFile(t *testing.T) {
	write := func(t *testing.T, doc analysis.ShardDoc) string {
		t.Helper()
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "shard.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := checkShardFile(write(t, shardDoc())); err != nil {
		t.Errorf("well-formed document failed: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*analysis.ShardDoc)
		want   string
	}{
		{"wrong schema", func(d *analysis.ShardDoc) { d.Schema = "arrowbench/shard/v0" }, "schema"},
		{"no rows", func(d *analysis.ShardDoc) { d.Rows = nil }, "no rows"},
		{"conservation", func(d *analysis.ShardDoc) { d.Rows[0].Requests = 1599 }, "issued"},
		{"dist decoupled", func(d *analysis.ShardDoc) { d.Rows[0].Latency.Count = 7 }, "latency distribution"},
		{"fairness objects", func(d *analysis.ShardDoc) { d.Rows[0].Fairness.Objects = 3 }, "fairness ranges"},
		{"request bounds", func(d *analysis.ShardDoc) { d.Rows[0].Fairness.MinRequests = 101 }, "partition"},
		{"latency extremes", func(d *analysis.ShardDoc) { d.Rows[0].Fairness.P99AvgLatency = 9 }, "unordered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := shardDoc()
			tc.mutate(&doc)
			err := checkShardFile(write(t, doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// scaleFixture is a one-row arrowbench/scale document as `arrowbench
// -exp scale -json` writes it (the 20 000-node centralized cell).
const scaleFixture = `{
  "schema": "arrowbench/scale/v2",
  "config": {"sizes": [20000], "per_node": 5, "max_requests": 0, "seed": 1},
  "rows": [{
    "protocol": "centralized", "topology": "complete", "n": 20000, "per_node": 5,
    "requests": 100000, "makespan": 100001, "events": 399990, "queue_hops": 100000,
    "events_per_sec": 29000000, "alloc_bytes": 7889000, "bytes_per_node": 394.45,
    "far_pushes": 99996, "heap_pushes": 0, "refills": 195
  }]
}`

// TestCheckScaleFile covers the scale document's structural gate,
// including the scheduler work counters it requires: a document from
// before they existed (a key missing) fails, as does a negative count
// or far pushes that no refill ever brought back.
func TestCheckScaleFile(t *testing.T) {
	write := func(t *testing.T, doc string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "scale.json")
		if err := os.WriteFile(p, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := checkScaleFile(write(t, scaleFixture)); err != nil {
		t.Errorf("well-formed document failed: %v", err)
	}
	cases := []struct {
		name, old, new, want string
	}{
		// v1 is the previous schema: the one with the parallel drain's
		// window and worker columns.
		{"wrong schema", "scale/v2", "scale/v1", "schema"},
		{"no events", `"events": 399990`, `"events": 0`, "non-positive"},
		{"missing far_pushes", `"far_pushes": 99996, `, ``, `missing scheduler counter "far_pushes"`},
		{"missing heap_pushes", `"heap_pushes": 0, `, ``, `missing scheduler counter "heap_pushes"`},
		{"missing refills", `, "refills": 195`, ``, `missing scheduler counter "refills"`},
		{"negative counter", `"heap_pushes": 0`, `"heap_pushes": -1`, "negative scheduler counter"},
		{"pushes without refill", `"refills": 195`, `"refills": 0`, "no refill"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := strings.Replace(scaleFixture, tc.old, tc.new, 1)
			if doc == scaleFixture {
				t.Fatalf("fixture does not contain %q", tc.old)
			}
			err := checkScaleFile(write(t, doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestComparePerfRequestCountChange(t *testing.T) {
	cur := perfDoc()
	cur.Rows[0].Requests = 31999
	msgs := comparePerf(perfDoc(), cur, 0.2)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "requests") {
		t.Errorf("request-count drift not caught: %v", msgs)
	}
}
