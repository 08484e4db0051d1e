package engine

import (
	"fmt"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
)

// adapter is what differs between the built-in protocols; the
// closed-loop, multi-object and static paths (run, runSharded) exist once.
type adapter interface {
	Protocol
	// nodes returns the size of the topology the protocol runs on —
	// Instance.Tree for arrow, Instance.Graph for the protocols that
	// assume a complete network — or an error when the instance lacks it.
	nodes(inst Instance) (int, error)
	// closed runs the protocol's single-object closed loop.
	closed(inst Instance, spec loop.Spec) (*loop.Result, error)
	// static replays Instance.Workload.Set.
	static(inst Instance) (*shard.StaticResult, error)
	// stepper builds the protocol's pointer discipline for k objects
	// sharded over n nodes.
	stepper(n, k int) (shard.Stepper, error)
}

// run is Protocol.Run for every built-in adapter.
func run(p adapter, inst Instance) (Cost, error) {
	if err := inst.Validate(); err != nil {
		return Cost{}, err
	}
	n, err := p.nodes(inst)
	if err != nil {
		return Cost{}, err
	}
	var cost Cost
	switch {
	case inst.Workload.Multi():
		return runSharded(p, inst, n)
	case inst.Workload.Closed():
		res, err := p.closed(inst, loopSpec(inst))
		if err != nil {
			return Cost{}, err
		}
		cost = loopCost(p.Name(), inst.Label, res)
	default:
		res, err := p.static(inst)
		if err != nil {
			return Cost{}, err
		}
		cost = staticCost(inst.Recorder, res)
		cost.Protocol, cost.Label, cost.N = p.Name(), inst.Label, n
	}
	attachDists(&cost, inst.Recorder)
	return cost, nil
}

// loopSpec projects an Instance onto the shared closed-loop run spec
// every protocol's LoopConfig embeds — the one place the mapping exists,
// so a new shared knob is threaded to every driver by one edit.
func loopSpec(inst Instance) loop.Spec {
	return loop.Spec{
		PerNode:     inst.Workload.PerNode,
		ThinkTime:   inst.Workload.ThinkTime,
		Latency:     inst.Latency,
		Arbitration: inst.Arbitration,
		Seed:        inst.Seed,
		Recorder:    inst.Recorder,
		Faults:      inst.Faults,
		LinkTxTime:  inst.LinkTxTime,
	}
}

// loopCost maps a closed-loop run's counters to the standard Cost.
func loopCost(proto, label string, r *loop.Result) Cost {
	return Cost{
		Protocol:         proto,
		Label:            label,
		N:                r.N,
		Requests:         r.Requests,
		TotalLatency:     r.TotalLatency,
		QueueHops:        r.QueueHops,
		ReplyHops:        r.ReplyHops,
		MaxHops:          r.MaxQueueHops,
		LocalCompletions: r.LocalCompletions,
		Makespan:         r.Makespan,
		Events:           r.Events,
		Dropped:          r.Dropped,
		Deferred:         r.Deferred,
		Reissued:         r.Reissued,
		RepliesLost:      r.RepliesLost,
		Affected:         r.Affected,
		RepairEpisodes:   r.RepairEpisodes,
		RepairMessages:   r.RepairMessages,
		RepairTime:       r.RepairTime,
	}
}

// staticCost maps a static-set run onto the Cost fields such a run
// populates: its totals, plus the locally completed (zero-hop) count
// tallied from the completion records. The same pass feeds the instance
// recorder, which is how static runs (which retain per-request records)
// get the same per-request observability as the streaming closed loops.
func staticCost(rec stats.Recorder, res *shard.StaticResult) Cost {
	cost := Cost{
		Requests:     int64(len(res.Completions)),
		TotalLatency: res.TotalLatency,
		QueueHops:    res.TotalHops,
		MaxHops:      res.MaxHops,
		Makespan:     res.Makespan,
		Order:        res.Order,
	}
	for _, c := range res.Completions {
		if rec != nil {
			rec.RecordRequest(c.Latency(), c.Hops)
		}
		if c.Hops == 0 {
			cost.LocalCompletions++
		}
	}
	return cost
}

// attachDists copies the recorder's distribution snapshots into the
// cost when the instance recorder is the standard DistRecorder, and
// derives the availability fraction from the affected-request counter
// (1 for fault-free runs and empty workloads).
func attachDists(c *Cost, rec stats.Recorder) {
	if dr, ok := rec.(*stats.DistRecorder); ok && dr != nil {
		c.Latency = dr.Latency.Snapshot()
		c.Hops = dr.Hops.Snapshot()
	}
	c.Availability = 1
	if c.Requests > 0 {
		c.Availability = 1 - float64(c.Affected)/float64(c.Requests)
	}
}

// Validate checks the run spec's cross-field coherence before any
// driver normalizes or executes it: the workload shape, the
// combinations the drivers do not support, and the simulator-level
// knobs the drivers cannot repair by normalization (they surface as
// the simulator's own typed *sim.ConfigError, the same error
// sim.Config.Validate returns, so callers see one error vocabulary
// whether a bad knob is caught here or at driver level).
func (inst Instance) Validate() error {
	if err := inst.Workload.validate(); err != nil {
		return err
	}
	switch {
	case inst.Faults != nil && !inst.Workload.Closed():
		// A static set has no re-issue loop to survive faults.
		return fmt.Errorf("engine: Instance.Faults requires a closed-loop workload")
	case inst.Faults != nil && inst.Workload.Multi():
		// The dispatch would otherwise drop the plan silently.
		return fmt.Errorf("engine: multi-object workloads do not support fault plans")
	case inst.ObjectRecorders != nil && !inst.Workload.Multi():
		return fmt.Errorf("engine: Instance.ObjectRecorders requires a multi-object workload (Workload.Objects > 1)")
	case inst.LinkTxTime < 0:
		return &sim.ConfigError{Field: "LinkTxTime", Reason: fmt.Sprintf("must be >= 0, got %d", inst.LinkTxTime)}
	case inst.LinkTxTime > 0 && !inst.Workload.Closed():
		// A static replay models infinite-capacity links; running it
		// would report those numbers under a finite-capacity label.
		return &sim.ConfigError{Field: "LinkTxTime", Reason: "requires a closed-loop workload (static-set runs have no link capacity model)"}
	}
	return nil
}

// graphNodes is adapter.nodes for the protocols that run on
// Instance.Graph's metric.
func graphNodes(proto string, g *graph.Graph) (int, error) {
	if g == nil {
		return 0, fmt.Errorf("engine: %s requires Instance.Graph", proto)
	}
	return g.NumNodes(), nil
}

// Arrow runs the arrow protocol on the instance's spanning tree; its
// multi-object tier runs k arrow instances, each on its own rotated
// binary tree (see arrow.ShardForest), sharing the network.
type Arrow struct{}

// Name implements Protocol.
func (Arrow) Name() string { return "arrow" }

// Run implements Protocol.
func (p Arrow) Run(inst Instance) (Cost, error) { return run(p, inst) }

func (Arrow) nodes(inst Instance) (int, error) {
	if inst.Tree == nil {
		return 0, fmt.Errorf("engine: arrow requires Instance.Tree")
	}
	return inst.Tree.NumNodes(), nil
}

func (Arrow) closed(inst Instance, spec loop.Spec) (*loop.Result, error) {
	return arrow.RunClosedLoop(inst.Tree, arrow.LoopConfig{Spec: spec, Root: inst.Root})
}

func (Arrow) static(inst Instance) (*shard.StaticResult, error) {
	res, err := arrow.Run(inst.Tree, inst.Workload.Set, arrow.Options{
		Root: inst.Root, Latency: inst.Latency, Arbitration: inst.Arbitration, Seed: inst.Seed})
	if err != nil {
		return nil, err
	}
	return &res.StaticResult, nil
}

func (Arrow) stepper(n, k int) (shard.Stepper, error) { return arrow.NewShardForest(n, k) }

// Centralized runs the central-coordinator baseline over the instance's
// graph metric, with Instance.Root as the central node. Its multi-object
// tier places object o's coordinator at node o mod Nodes, with
// serialization supplied by the shared network's per-link capacity
// rather than an explicit service time (see centralized.ShardCenters);
// ServiceTime and FailoverDelay do not apply there.
type Centralized struct {
	// ServiceTime is the central node's per-request serialization cost
	// (0 = one time unit).
	ServiceTime sim.Time
	// FailoverDelay is the unavailability window after a coordinator
	// failure before the deterministic replacement serves (0 = the
	// driver default; only meaningful with Instance.Faults).
	FailoverDelay sim.Time
}

// Name implements Protocol.
func (Centralized) Name() string { return "centralized" }

// Run implements Protocol.
func (p Centralized) Run(inst Instance) (Cost, error) { return run(p, inst) }

func (p Centralized) nodes(inst Instance) (int, error) { return graphNodes(p.Name(), inst.Graph) }

func (p Centralized) closed(inst Instance, spec loop.Spec) (*loop.Result, error) {
	return centralized.RunClosedLoop(inst.Graph, centralized.LoopConfig{
		Spec:          spec,
		Center:        inst.Root,
		ServiceTime:   p.ServiceTime,
		FailoverDelay: p.FailoverDelay,
	})
}

func (p Centralized) static(inst Instance) (*shard.StaticResult, error) {
	return centralized.Run(inst.Graph, inst.Workload.Set, centralized.Options{
		Center: inst.Root, ServiceTime: p.ServiceTime, Latency: inst.Latency, Arbitration: inst.Arbitration, Seed: inst.Seed})
}

func (Centralized) stepper(n, k int) (shard.Stepper, error) {
	return centralized.NewShardCenters(n, k)
}

// NTA runs the Naimi–Trehel–Arnold path-reversal protocol over the
// instance's graph metric; its multi-object tier runs k independent
// last-pointer sets over the shared metric (see nta.ShardReversal).
type NTA struct{}

// Name implements Protocol.
func (NTA) Name() string { return "nta" }

// Run implements Protocol.
func (p NTA) Run(inst Instance) (Cost, error) { return run(p, inst) }

func (p NTA) nodes(inst Instance) (int, error) { return graphNodes(p.Name(), inst.Graph) }

func (NTA) closed(inst Instance, spec loop.Spec) (*loop.Result, error) {
	return nta.RunClosedLoop(inst.Graph, nta.LoopConfig{Spec: spec, Root: inst.Root})
}

func (NTA) static(inst Instance) (*shard.StaticResult, error) {
	return nta.Run(inst.Graph, inst.Workload.Set, nta.Options{
		Root: inst.Root, Latency: inst.Latency, Arbitration: inst.Arbitration, Seed: inst.Seed})
}

func (NTA) stepper(n, k int) (shard.Stepper, error) { return nta.NewShardReversal(n, k) }

// Ivy is NTA under the name "ivy": for a find, Li–Hudak's path
// shortening makes NTA's pointer update, so both ran one stepper. It
// exists only because bench/ runs it and keys a digest on its name;
// ROADMAP item 1 deletes it.
type Ivy struct{ NTA }

// Name implements Protocol.
func (Ivy) Name() string { return "ivy" }

// Run implements Protocol.
func (p Ivy) Run(inst Instance) (Cost, error) { return run(p, inst) }
