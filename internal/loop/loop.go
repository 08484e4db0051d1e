// Package loop holds the closed-loop types every protocol driver shares:
// Spec, the run knobs all three LoopConfigs embed, and Result, the counter
// tuple all three return. The driver that executes a Spec for the
// pointer-chasing protocols (arrow, NTA) is package shard's; the
// centralized coordinator keeps its own (see DESIGN.md).
package loop

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Spec drives a closed-loop run (the Section 5 regime). It is the one
// run-spec shared by every protocol driver: arrow, centralized and NTA
// all embed it in their LoopConfig, so the common knobs exist once
// and cannot drift between protocols.
type Spec struct {
	// PerNode is the number of requests each node issues.
	PerNode int
	// ThinkTime is the delay between learning completion and issuing the
	// next request; 0 defaults to 1 (one local processing step).
	ThinkTime sim.Time
	// Latency is the delay model (nil = synchronous).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed keys the random latency and arbitration draws, each a hash of
	// (Seed, event seq), and on the multi-object tier the Zipf object
	// draws.
	Seed int64
	// Recorder, when non-nil, receives every completed request's queuing
	// latency and hop count as it completes (fixed-memory streaming
	// observability at any request count). The completion hot path does
	// no recording work when nil.
	Recorder stats.Recorder
	// Faults, when non-nil, is the deterministic liveness schedule the
	// run executes under. A dropped find loses the request and a dropped
	// completion notification strands its requester; each protocol
	// recovers its own way (NTA re-issues once the blocking entity
	// recovers, arrow repairs its pointer state first, the centralized
	// coordinator fails over — see the protocol's LoopConfig). The plan
	// must be Healing: a permanently dead entity leaves requests
	// unservable, so the drivers refuse it up front.
	Faults *sim.FaultPlan
	// Workers is accepted and ignored: it selected the simulator's
	// parallel drain, which was deleted (DESIGN.md, "Scale tier (million
	// nodes)"; ROADMAP, "Settled"), and every run is the one serial
	// loop whatever its value (TestWorkersAccepted pins that). The field stays because
	// bench/ — frozen between benchmark PRs — sets it; it leaves with
	// the benchmark PR of ROADMAP item 1 that retires the
	// drain-parallel workload.
	Workers int
	// LinkTxTime, when positive, gives every link finite serialization
	// capacity (see sim.Config.LinkTxTime); 0 keeps the classic
	// infinite-capacity model.
	LinkTxTime sim.Time
	// DrainStats, when non-nil, receives the run's scheduler telemetry
	// (sim.DrainStats.Sched; the struct's window fields are always zero
	// and leave with Workers). It is an out-pointer rather than a Result
	// field so Result stays exactly the determinism tuple.
	DrainStats *sim.DrainStats
}

// Result aggregates a closed-loop run: one counter tuple for every
// protocol (arrow.LoopResult, centralized.LoopResult and nta.LoopResult
// are all this type), so the engine layer maps any
// run to its Cost through one conversion. Counters rather than
// per-request records keep multi-million-request runs cheap. QueueHops
// and ReplyHops count messages, each one link traversal: a tree edge
// for arrow, a direct metric send for the protocols that assume a
// complete network (the paper's SP2 setting).
type Result struct {
	// N is the node count, Requests the total completed requests.
	N        int
	Requests int64
	// Makespan is the total simulated time to drain all requests — the
	// quantity Figure 10 plots.
	Makespan sim.Time
	// QueueHops counts request-forwarding messages; QueueHops/Requests
	// is the quantity Figure 11 plots.
	QueueHops int64
	// ReplyHops counts completion-notification messages (reported
	// separately; the paper does not charge these to the protocol).
	ReplyHops int64
	// LocalCompletions counts requests whose issuer already held the
	// object / tail, or was the coordinator itself (zero messages).
	LocalCompletions int64
	// TotalLatency sums per-request queuing latencies (Definition 3.2:
	// issue until queued behind the predecessor; the reply leg is
	// notification traffic, charged to ReplyHops only).
	TotalLatency int64
	// MaxQueueHops is the worst single-request forwarding count.
	MaxQueueHops int
	// Events is the number of simulator events the run consumed
	// (messages + timers) — the denominator of the engine's events/sec
	// throughput metric, deterministic for a fixed config.
	Events int64
	// Fault/recovery counters, all zero in fault-free runs. Dropped
	// counts messages lost to faults, Deferred messages stalled by them
	// (policy FaultQueue). Reissued counts requests re-issued after
	// their find was lost, RepliesLost completion notifications lost in
	// transit (recovered by a timer at heal). Affected counts completed
	// requests a fault touched — the complement of the availability
	// fraction. RepairEpisodes / RepairMessages / RepairTime account
	// arrow's self-stabilizing repair in the same message/latency
	// currency as the protocol; they stay zero for the protocols that
	// recover by re-issue or failover alone.
	Dropped        int64
	Deferred       int64
	Reissued       int64
	RepliesLost    int64
	Affected       int64
	RepairEpisodes int64
	RepairMessages int64
	RepairTime     sim.Time
}

// AvgQueueHops returns forwarding messages per queuing operation —
// Figure 11's metric.
func (r *Result) AvgQueueHops() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.QueueHops) / float64(r.Requests)
}

// AvgLatency returns mean per-request queuing latency.
func (r *Result) AvgLatency() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.TotalLatency) / float64(r.Requests)
}
