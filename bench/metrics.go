package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef declares one metric the benchmark prints. The end-to-end
// list and the per-layer list are the benchmark's contract: every run
// prints every metric of its pass, BENCHMARK.json lists exactly these
// names, and bench_test.go fails when the two drift.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Each is defined on all six workloads and is never zero,
// so one bound per metric applies to every workload.
var endToEnd = []metricDef{
	{"requests_per_sec", "1/s", higher},
	{"alloc_mb", "MB", lower},
	{"cpu_s_per_mreq", "s", lower},
	{"setup_s", "s", lower},
}

// perLayer are the traced pass's metrics, prefixed by the module they
// describe. A metric that does not apply to a workload reads 0 there
// (tree.* on complete topologies, runtime.* on simulated workloads).
var perLayer = []metricDef{
	{"tree.nav_calls", "count", lower},
	{"tree.nav_calls_per_event", "1/event", lower},
	{"tree.busy_s", "s", lower},

	{"sim.events", "count", lower},
	{"sim.events_per_request", "1/req", lower},
	{"sim.sends", "count", lower},
	{"sim.timers", "count", lower},
	{"sim.events_per_sec", "1/s", higher},
	{"sim.ns_per_event", "ns", lower},
	{"sim.topology_busy_s", "s", lower},
	{"sim.self_s", "s", lower},
	{"sim.makespan_ticks", "ticks", lower},
	{"sim.queue_hops_per_request", "1/req", lower},
	{"sim.p99_latency_ticks", "ticks", lower},

	{"sim.probe.sched_ring_ns", "ns", lower},
	{"sim.probe.sched_overflow_ns", "ns", lower},
	{"sim.probe.send_ns", "ns", lower},
	{"sim.probe.send_linktx_ns", "ns", lower},
	{"sim.probe.send_async_ns", "ns", lower},
	{"sim.probe.send_counter_ns", "ns", lower},
	{"sim.far_timers", "count", lower},
	{"sim.est_sched_s", "s", lower},
	{"sim.est_overflow_s", "s", lower},
	{"sim.est_send_s", "s", lower},
	{"driver.residual_s", "s", lower},

	{"sim.drain.window_width.w1", "ticks", higher},
	{"sim.drain.windows.w1", "count", lower},
	{"sim.drain.mean_batch.w1", "events", higher},
	{"sim.drain.windows_per_mev.w1", "1/Mev", lower},
	{"sim.drain.speedup.w1", "ratio", higher},
	{"sim.drain.alloc_ratio.w1", "ratio", lower},
	{"sim.drain.cpu_ns_per_event.w1", "ns", lower},
	{"sim.drain.window_width.w8", "ticks", higher},
	{"sim.drain.windows.w8", "count", lower},
	{"sim.drain.mean_batch.w8", "events", higher},
	{"sim.drain.windows_per_mev.w8", "1/Mev", lower},
	{"sim.drain.speedup.w8", "ratio", higher},
	{"sim.drain.alloc_ratio.w8", "ratio", lower},
	{"sim.drain.cpu_ns_per_event.w8", "ns", lower},

	{"proto.step_calls", "count", lower},
	{"proto.step_busy_s", "s", lower},
	{"proto.local_ratio", "ratio", higher},
	{"proto.hops_max", "hops", lower},

	{"stats.records", "count", lower},
	{"stats.busy_s", "s", lower},
	{"stats.probe.record_ns", "ns", lower},
	{"workload.zipf_draws", "count", lower},
	{"workload.probe.zipf_draw_ns", "ns", lower},

	{"engine.cells", "count", lower},
	{"engine.cell_busy_s_sum", "s", lower},
	{"engine.cell_busy_s_max", "s", lower},
	{"engine.sweep_efficiency", "ratio", higher},

	{"runtime.accepted", "count", higher},
	{"runtime.rejected", "count", lower},
	{"runtime.latency_samples", "count", higher},
	{"runtime.p50_latency_us", "us", lower},
	{"runtime.p99_latency_us", "us", lower},
	{"runtime.p999_latency_us", "us", lower},
	{"runtime.p9999_latency_us", "us", lower},
	{"runtime.submit_us_p50", "us", lower},
	{"runtime.submit_us_p99", "us", lower},
	{"runtime.wait_us_p50", "us", lower},
	{"runtime.hops_per_request", "1/req", lower},
	{"runtime.stop_s", "s", lower},

	{"host.cpu_user_s", "s", lower},
	{"host.cpu_sys_s", "s", lower},
	{"host.cpu_util", "cores", lower},
	{"host.gc_cycles", "count", lower},
	{"host.gc_pause_ms", "ms", lower},
	{"host.heap_sys_mb", "MB", lower},
	{"host.calibration_ns", "ns", lower},
	{"trace.overhead_ratio", "ratio", lower},
}

// value is one reported number with its unit, in the shape the last
// output line and the result documents carry.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one pass and renders them against
// the declared list, so a metric nobody set still prints (as 0) and a
// metric nobody declared is a programming error.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		out[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	for name := range m {
		if !declared[name] {
			panic("bench: metric " + name + " is set but not declared")
		}
	}
	return out
}

// summary is the last line of a contract run's standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

const resultSchema = "arrowbench/bench/v1"

// resultDoc is one run's result document: the summary plus everything
// needed to judge whether two documents may be compared.
type resultDoc struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Seconds  float64 `json:"seconds"`
	// StartedNS is when the pass began (Unix ns): --compare uses it to
	// tell interleaved result sets from sequential ones.
	StartedNS int64       `json:"started_unix_ns"`
	Host      fingerprint `json:"host"`
	// Comparable is false when the host cannot run the two-worker
	// workloads in parallel; NotComparable says why.
	Comparable    bool   `json:"comparable"`
	NotComparable string `json:"not_comparable,omitempty"`
	Units         int    `json:"units"`
	SimDigest     string `json:"sim_digest,omitempty"`
	// Samples holds the per-unit values behind each end-to-end median.
	Samples  map[string][]float64 `json:"samples,omitempty"`
	Problems []string             `json:"problems,omitempty"`
	summary
}

// write stores the document in dir under a name that never collides
// with an earlier run's.
func (d *resultDoc) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create output directory: %w", err)
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	trace := 0
	if d.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s.t%d.s%d.%d.json", d.Workload, trace, d.Seed, time.Now().UnixNano()))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write result: %w", err)
	}
	return path, nil
}
