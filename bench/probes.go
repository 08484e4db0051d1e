package main

import (
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
	wkld "repro/internal/workload"
)

// The isolated layer probes. Each drives one layer through its public
// API with the smallest handler that keeps it busy and reports host
// nanoseconds per event (or per call). They are what turns a workload's
// deterministic counts into the modelled sim.est_* times, and what a
// change to one layer should move on its own before any workload does.

// probeResult is one probe's reading.
type probeResult struct {
	name string
	ns   float64
}

// runProbes runs every probe once at the given sizes.
func runProbes(sz sizes, seed int64) []probeResult {
	n, events := sz.probeNodes, int64(sz.probeEvents)
	walker := tree.BinaryWalker(n + 1)
	return []probeResult{
		// Self-re-arming node timers with delays 1–8: every event is a
		// ladder-ring push and pop, nothing else.
		{"sim.probe.sched_ring_ns", probeTimers(n, events,
			func(graph.NodeID) sim.Time { return 0 },
			func(v graph.NodeID) sim.Time { return 1 + sim.Time(v&7) })},
		// One timer per tick, each re-armed n ticks ahead — far beyond the
		// 512-tick ring, so every event goes through the overflow heap and
		// a refill, pushed in increasing time order as the coordinator's
		// serve-finish queue pushes them.
		{"sim.probe.sched_overflow_ns", probeTimers(n, events,
			func(v graph.NodeID) sim.Time { return sim.Time(v) },
			func(graph.NodeID) sim.Time { return max(sim.Time(n), 4096) })},
		// Child↔parent ping-pong on the implicit binary tree: the send
		// path with no link state at all (synchronous, infinite capacity).
		{"sim.probe.send_ns", probeSend(walker, events, sim.Config{Seed: seed})},
		// The same with finite capacity: dense link-clock slot and
		// reservation on every send.
		{"sim.probe.send_linktx_ns", probeSend(walker, events, sim.Config{Seed: seed, LinkTxTime: 1})},
		// Random delays force the FIFO clamp; the two models differ in how
		// the delay is drawn (shared RNG stream vs counter hash).
		{"sim.probe.send_async_ns", probeSend(walker, events, sim.Config{Seed: seed, Latency: sim.AsyncUniform(4)})},
		{"sim.probe.send_counter_ns", probeSend(walker, events, sim.Config{Seed: seed, Latency: sim.AsyncCounter(4)})},
		{"stats.probe.record_ns", probeRecord(events, seed)},
		{"workload.probe.zipf_draw_ns", probeZipf(events, seed)},
	}
}

// probeTimers runs n nodes whose node timer first fires at first(v) and
// re-arms itself delay(v) ticks ahead until the event budget is spent.
func probeTimers(n int, events int64, first, delay func(graph.NodeID) sim.Time) float64 {
	s := sim.New(sim.Config{Topology: sim.NewCompleteTopology(n)})
	left := events - int64(n)
	s.SetTimerHandler(func(ctx *sim.Context, v graph.NodeID) {
		if left > 0 {
			left--
			ctx.AfterNode(delay(v), v)
		}
	})
	for v := 0; v < n; v++ {
		s.ScheduleNodeAt(first(graph.NodeID(v)), graph.NodeID(v))
	}
	start := time.Now()
	s.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(s.EventsProcessed())
}

// probeSend bounces one pre-boxed message between every non-root node
// and its parent until the event budget is spent.
func probeSend(t *tree.Walker, events int64, cfg sim.Config) float64 {
	cfg.Topology = sim.TreeTopology{T: t}
	s := sim.New(cfg)
	n := t.NumNodes()
	left := events - int64(n)
	msg := new(struct{})
	s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, m sim.Message) {
		if left > 0 {
			left--
			ctx.Send(at, from, m)
		}
	})
	s.SetTimerHandler(func(ctx *sim.Context, v graph.NodeID) {
		ctx.Send(v, t.Parent(v), msg)
	})
	for v := 1; v < n; v++ {
		s.ScheduleNodeAt(0, graph.NodeID(v))
	}
	start := time.Now()
	s.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(s.EventsProcessed())
}

// probeRecord feeds a DistRecorder latencies and hop counts spread over
// the histogram's linear and logarithmic ranges.
func probeRecord(calls int64, seed int64) float64 {
	rec := stats.NewDistRecorder()
	x := newXorshift(seed, 0)
	start := time.Now()
	for i := int64(0); i < calls; i++ {
		r := x.next()
		rec.RecordRequest(int64(r%4096), int(r>>60))
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(calls)
	sink += uint64(rec.Latency.Count())
	return ns
}

// probeZipf draws objects from shard-capacity's popularity law.
func probeZipf(calls int64, seed int64) float64 {
	z := wkld.NewZipf(1024, 1.1)
	var sum int64
	start := time.Now()
	for i := int64(0); i < calls; i++ {
		sum += int64(z.Draw(seed, graph.NodeID(i&1023), i>>10))
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(calls)
	sink += uint64(sum)
	return ns
}
