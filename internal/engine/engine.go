// Package engine is the reusable experiment layer above the protocol
// packages: a single Protocol interface with a standard Cost result, one
// adapter per queuing protocol (arrow, centralized, NTA), and a
// sharded parallel runner (Sweep) that fans independent experiment cells
// across a worker pool while returning results in deterministic cell
// order — byte-identical to a sequential run.
//
// Experiment code above this layer (internal/analysis, cmd/arrowbench,
// the root benchmarks) composes cells instead of hand-wiring each
// protocol pair, so adding a protocol or a topology automatically extends
// every sweep.
package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// Workload selects what traffic an instance carries: a static request
// set (the paper's analytic setting) or a closed-loop load where every
// node keeps PerNode requests in flight one at a time (the Section 5
// experimental setting). Closed-loop workloads additionally carry the
// multi-object dimension: Objects > 1 shards the run across that many
// protocol instances on one shared network, with per-request object
// choice drawn from a Zipf popularity law of exponent Skew.
//
// Construct workloads through the WorkloadSpec builder (NewClosedLoop /
// NewStatic), which rejects ambiguous combinations at construction; the
// zero-value-literal route remains open for tests but is validated only
// when a run starts.
type Workload struct {
	// Set is the static request set; leave nil (with a positive
	// PerNode) for a closed-loop run.
	Set queuing.Set
	// PerNode is the number of closed-loop requests each node issues;
	// ignored when Set is non-nil.
	PerNode int
	// ThinkTime is the closed-loop delay between learning completion and
	// issuing the next request (0 = one local step).
	ThinkTime sim.Time
	// Objects is the number of independent protocol instances the
	// closed-loop traffic spreads over (0 and 1 both mean the classic
	// single-object run). Each request draws its object independently;
	// all objects' traffic shares one network. Requires a closed-loop
	// workload.
	Objects int
	// Skew is the Zipf exponent of object popularity when Objects > 1:
	// object o (0-based) is drawn with weight (o+1)^-Skew. 0 means
	// uniform popularity; larger values concentrate load on low-numbered
	// objects (s = 1.1 is the classic hot-object regime).
	Skew float64
}

// Closed reports whether the workload is closed-loop: no static set and
// a positive PerNode. A generator that legitimately produced no requests
// is not reclassified as a closed-loop run (NewStatic normalizes nil),
// and the ambiguous combination — nil set with PerNode < 1, e.g. a
// closed-loop experiment invoked with PerNode 0 — is rejected by every
// adapter via validate instead of silently running an empty static set.
func (w Workload) Closed() bool { return w.Set == nil && w.PerNode > 0 }

// Multi reports whether the workload carries the object dimension.
func (w Workload) Multi() bool { return w.Objects > 1 }

// validate rejects the ambiguous workload that is neither a static set
// nor a well-formed closed loop, a negative think time, and malformed
// object dimensions.
func (w Workload) validate() error {
	if w.Set == nil && w.PerNode < 1 {
		return fmt.Errorf("engine: workload has neither a static request set nor a positive closed-loop PerNode")
	}
	if w.ThinkTime < 0 {
		return fmt.Errorf("engine: ThinkTime must be >= 0, got %d", w.ThinkTime)
	}
	if w.Objects < 0 {
		return fmt.Errorf("engine: workload Objects must be >= 0, got %d", w.Objects)
	}
	if w.Objects > 1 && w.Set != nil {
		return fmt.Errorf("engine: multi-object workloads require a closed loop (static sets carry no object dimension)")
	}
	if w.Skew != 0 {
		if !(w.Skew >= 0) { // NaN too
			return fmt.Errorf("engine: workload Skew must be >= 0, got %g", w.Skew)
		}
		if w.Objects <= 1 {
			return fmt.Errorf("engine: workload Skew %g without Objects > 1 has nothing to skew", w.Skew)
		}
	}
	return nil
}

// WorkloadSpec builds a validated Workload: every knob is named, the
// chain reads as the experiment it describes, and Build rejects
// ambiguous or contradictory specs at construction time rather than
// when a run starts.
//
//	w, err := engine.NewClosedLoop(2000).Think(16).Objects(1000).Zipf(1.1).Build()
type WorkloadSpec struct {
	w   Workload
	err error
}

// NewClosedLoop starts a closed-loop spec where every node issues
// perNode requests one at a time. perNode < 1 is reported by Build.
func NewClosedLoop(perNode int) *WorkloadSpec {
	s := &WorkloadSpec{w: Workload{PerNode: perNode}}
	if perNode < 1 {
		s.err = fmt.Errorf("engine: closed-loop PerNode must be >= 1, got %d", perNode)
	}
	return s
}

// NewStatic starts a static-set spec replaying the given request set. A
// nil set is normalized to an empty one, so empty generator output stays
// in static mode.
func NewStatic(set queuing.Set) *WorkloadSpec {
	if set == nil {
		set = queuing.Set{}
	}
	return &WorkloadSpec{w: Workload{Set: set}}
}

// Think sets the closed-loop think time (delay between learning
// completion and issuing the next request; 0 = one local step).
func (s *WorkloadSpec) Think(d sim.Time) *WorkloadSpec {
	s.closedOnly("Think")
	s.w.ThinkTime = d
	return s
}

// Objects sets the multi-object dimension: the closed-loop traffic
// spreads over k independent protocol instances sharing one network.
// k <= 1 keeps the classic single-object run.
func (s *WorkloadSpec) Objects(k int) *WorkloadSpec {
	s.closedOnly("Objects")
	s.w.Objects = k
	return s
}

// Zipf sets the object-popularity exponent (see Workload.Skew), before
// or after Objects.
func (s *WorkloadSpec) Zipf(skew float64) *WorkloadSpec {
	s.w.Skew = skew
	return s
}

// closedOnly records what Build's validate cannot see: a closed-loop
// knob applied to a static set, whose Workload would ignore the value.
// The object dimension's ranges and cross-field rules are validate's, so
// they do not depend on the order of the chain.
func (s *WorkloadSpec) closedOnly(knob string) {
	if s.w.Set != nil && s.err == nil {
		s.err = fmt.Errorf("engine: %s applies to closed-loop workloads, not static sets", knob)
	}
}

// Build returns the validated workload or the first construction error.
func (s *WorkloadSpec) Build() (Workload, error) {
	if s.err != nil {
		return Workload{}, s.err
	}
	if err := s.w.validate(); err != nil {
		return Workload{}, err
	}
	return s.w, nil
}

// MustBuild is Build for specs known correct by construction (package
// defaults, tests); it panics on a malformed spec.
func (s *WorkloadSpec) MustBuild() Workload {
	w, err := s.Build()
	if err != nil {
		panic(err)
	}
	return w
}

// Instance is one fully specified experiment cell input: topology,
// workload and simulation options. Graph is required by the completely
// connected protocols (centralized, NTA); Tree by arrow. Either may
// be nil when no cell protocol needs it.
type Instance struct {
	// Label names the cell in experiment output (e.g. "n=32").
	Label string
	// Graph is the network G.
	Graph *graph.Graph
	// Tree is the spanning tree T arrow runs on.
	Tree *tree.Tree
	// Root is the initial sink (arrow), central node (centralized) or
	// initial tail holder (NTA).
	Root graph.NodeID
	// Workload is the traffic.
	Workload Workload
	// Latency is the delay model (nil = synchronous unit latency).
	Latency sim.LatencyModel
	// Arbitration orders simultaneous messages.
	Arbitration sim.Arbitration
	// Seed keys the cell's random latency and arbitration draws: each
	// hashes (Seed, event seq).
	Seed int64
	// Faults is the deterministic liveness schedule the cell runs under
	// (nil = fault-free, bit-identical to a simulator without the fault
	// layer). Only closed-loop workloads support faults; the plan is
	// read-only and may be shared across cells, so a sweep stays
	// byte-identical across worker counts. Arrow recovers by
	// message-driven self-stabilizing repair, NTA by re-issue, and
	// centralized by deterministic coordinator failover.
	Faults *sim.FaultPlan
	// Recorder, when non-nil, receives every completed request's queuing
	// latency and hop count: closed-loop drivers feed it streamingly as
	// requests complete (fixed memory at any request count), static runs
	// from their completion records after the run. On a multi-object run
	// (Workload.Objects > 1) it observes the aggregate stream — every
	// object's completions, in completion order. When the recorder is
	// a *stats.DistRecorder, the run's Cost carries Latency/Hops
	// distribution snapshots. The protocol hot paths do no recording
	// work when Recorder is nil.
	//
	// Recorders accumulate state, so each swept cell needs its own —
	// aggregate and per-object alike: Grid panics rather than share a
	// recording Instance (a Recorder or any ObjectRecorders entry)
	// across its protocol column (the copies would race under Sweep) —
	// grids that record build one Instance per cell, with fresh
	// recorders for every object slot (as analysis.closedLoopCells does).
	Recorder stats.Recorder
	// ObjectRecorders, when non-nil, attaches one recorder per object of
	// a multi-object run: entry o observes exactly object o's
	// completions. Its length must equal Workload.Objects; entries may
	// be nil to skip an object. Single-object and static runs reject it.
	ObjectRecorders []stats.Recorder
	// LinkTxTime, when positive, gives every link of the instance's
	// network finite serialization capacity (see sim.Config.LinkTxTime):
	// messages on one directed link depart at least LinkTxTime apart, so
	// concurrent traffic — in particular the combined load of a
	// multi-object run — queues instead of superposing for free. 0 keeps
	// the classic infinite-capacity model, the only one static-set runs
	// have: Validate rejects a positive value on a static workload.
	LinkTxTime sim.Time
}

// Cost is the standard result of one protocol run: the cost metrics the
// paper analyzes, in one shape for every protocol.
type Cost struct {
	// Protocol and Label identify the cell that produced the cost.
	Protocol string
	Label    string
	// N is the node count, Requests the completed request count.
	N        int
	Requests int64
	// TotalLatency is Σ per-request queuing latencies (Definition 3.2):
	// issue until the request is queued behind its predecessor, in both
	// workload modes and for every protocol.
	TotalLatency int64
	// QueueHops counts queue/find-message link traversals; QueueHops /
	// Requests is Figure 11's metric.
	QueueHops int64
	// ReplyHops counts completion-notification traversals (closed-loop
	// runs; the paper does not charge these to the queuing protocol, so
	// every adapter reports them separately from QueueHops).
	ReplyHops int64
	// MaxHops is the worst single-request hop count.
	MaxHops int
	// LocalCompletions counts requests that found their predecessor
	// locally (zero messages).
	LocalCompletions int64
	// Makespan is the simulated time at quiescence.
	Makespan sim.Time
	// Events is the number of simulator events the run consumed
	// (messages plus timers) — deterministic for a fixed instance, and
	// the denominator of the perf document's events/sec throughput.
	// Populated by closed-loop runs; zero for static-set runs.
	Events int64
	// Latency and Hops are per-request distribution snapshots (queuing
	// latency; queue/find hop counts) with p50/p90/p99/p999/max and
	// streaming mean/std, populated when Instance.Recorder is a
	// *stats.DistRecorder; zero (Count == 0) otherwise.
	Latency stats.Dist
	Hops    stats.Dist
	// Fault/recovery metrics, populated by closed-loop runs under a
	// FaultPlan and zero otherwise. Dropped/Deferred count messages the
	// faults destroyed or stalled; Reissued counts requests re-issued
	// after a loss, RepliesLost completion notifications lost in
	// transit. RepairEpisodes/RepairMessages/RepairTime account arrow's
	// message-driven self-stabilizing repair in the same hops/latency
	// currency as the protocol traffic. Affected counts completed
	// requests a fault touched.
	Dropped        int64
	Deferred       int64
	Reissued       int64
	RepliesLost    int64
	Affected       int64
	RepairEpisodes int64
	RepairMessages int64
	RepairTime     sim.Time
	// Availability is the clean-completion fraction 1 − Affected /
	// Requests: the share of requests no fault touched (1 for fault-free
	// runs).
	Availability float64
	// Order is the induced total order (static-set runs; nil otherwise).
	Order queuing.Order
	// PerObject and Fairness carry the object dimension of a multi-object
	// run (Workload.Objects > 1); nil and zero otherwise. PerObject[o] is
	// object o's own cost: Makespan and Events stay zero there (they are
	// whole-run quantities, reported on the enclosing Cost), and
	// Latency/Hops are populated for objects whose
	// Instance.ObjectRecorders entry is a *stats.DistRecorder. Fairness
	// summarizes the spread across PerObject.
	PerObject []Cost
	Fairness  Fairness
}

// AvgLatency returns mean per-request latency.
func (c Cost) AvgLatency() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.TotalLatency) / float64(c.Requests)
}

// AvgQueueHops returns queue-message hops per operation.
func (c Cost) AvgQueueHops() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.QueueHops) / float64(c.Requests)
}

// Protocol is a queuing protocol the engine can run on an Instance.
// Implementations must be stateless values: the same Protocol is invoked
// concurrently from multiple sweep workers. Every built-in adapter
// (Arrow, Centralized, NTA) supports both static-set and
// closed-loop workloads.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Run executes the protocol on the instance and returns its cost.
	// Runs are deterministic for a fixed instance.
	Run(inst Instance) (Cost, error)
}
