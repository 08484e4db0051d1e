package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/loop"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
)

// MultiInstance is one fully specified multi-object experiment cell: k
// protocol instances sharded across an n-node shared network. Unlike
// the single-object Instance there is no explicit Graph/Tree/Root — the
// shared network is the implicit complete metric on Nodes nodes, and
// each object roots at its own home node (object o at o mod Nodes), so
// the k instances spread the root hotspot instead of stacking it.
type MultiInstance struct {
	// Label names the cell in experiment output (e.g. "n=32/k=1000").
	Label string
	// Nodes is the shared network's node count.
	Nodes int
	// Workload is the traffic; it must be closed-loop. Workload.Objects
	// of 0 or 1 runs the degenerate single-object case through the same
	// sharded machinery.
	Workload Workload
	// Latency, Arbitration, Seed and LinkTxTime carry the same
	// simulator knobs as Instance. A positive LinkTxTime is what makes
	// the network shared in a measurable sense: the objects' combined
	// traffic queues on per-link capacity instead of superposing for
	// free.
	Latency     sim.LatencyModel
	Arbitration sim.Arbitration
	Seed        int64
	LinkTxTime  sim.Time
	// Recorder observes the aggregate completion stream (every object);
	// ObjectRecorders entry o observes exactly object o's completions.
	// The sharing rules of Instance.Recorder apply to both.
	Recorder        stats.Recorder
	ObjectRecorders []stats.Recorder
}

// Fairness summarizes how evenly a multi-object run treated its k
// objects: extremes and tail quantiles across the per-object costs.
// Quantiles are nearest-rank over the object population, so they are
// exact and deterministic. The JSON tags are the wire shape of the
// shard experiment output.
type Fairness struct {
	// Objects is the population size the quantiles range over.
	Objects int `json:"objects"`
	// MinRequests/MaxRequests bound the per-object request counts — the
	// spread the Zipf skew induces.
	MinRequests int64 `json:"min_requests"`
	MaxRequests int64 `json:"max_requests"`
	// MinAvgLatency/MaxAvgLatency/P99AvgLatency summarize the objects'
	// mean queuing latencies; P99AvgLatency is the latency the slowest
	// 1% of objects exceed.
	MinAvgLatency float64 `json:"min_avg_latency"`
	MaxAvgLatency float64 `json:"max_avg_latency"`
	P99AvgLatency float64 `json:"p99_avg_latency"`
	// MinAvailability/MaxAvailability/P1Availability summarize the
	// objects' clean-completion fractions. Availability is
	// higher-is-better, so its tail is the low end: P1Availability is
	// the availability 99% of objects meet or exceed. All three are 1
	// for fault-free runs (the multi-object tier currently rejects
	// fault plans, so the fields future-proof the schema).
	MinAvailability float64 `json:"min_availability"`
	MaxAvailability float64 `json:"max_availability"`
	P1Availability  float64 `json:"p1_availability"`
}

// MultiCost is the result of one multi-object run: the standard Cost
// for the combined traffic, one Cost per object, and the fairness
// summary across them.
type MultiCost struct {
	// Aggregate covers all objects' traffic. Its Makespan/Events are
	// whole-run quantities; its Latency/Hops snapshots are populated
	// when MultiInstance.Recorder is a *stats.DistRecorder.
	Aggregate Cost
	// PerObject holds object o's cost at index o. Makespan and Events
	// stay zero (they are global); Latency/Hops snapshots are populated
	// for objects whose ObjectRecorders entry is a *stats.DistRecorder.
	PerObject []Cost
	// Fairness summarizes the per-object spread.
	Fairness Fairness
}

// MultiProtocol is a Protocol that can also run sharded multi-object
// instances. All four built-in adapters implement it.
type MultiProtocol interface {
	Protocol
	// RunMulti executes k sharded instances of the protocol on the
	// shared network and returns per-object and aggregate costs.
	RunMulti(inst MultiInstance) (MultiCost, error)
}

// objects normalizes the workload's object dimension for the shard
// driver: 0 (unset) runs as the single-object degenerate case.
func (m MultiInstance) objects() int {
	if m.Workload.Objects < 1 {
		return 1
	}
	return m.Workload.Objects
}

// validate rejects multi-instances the shard tier cannot run.
func (m MultiInstance) validate() error {
	if m.Nodes < 1 {
		return fmt.Errorf("engine: MultiInstance.Nodes must be >= 1, got %d", m.Nodes)
	}
	if err := m.Workload.validate(); err != nil {
		return err
	}
	if !m.Workload.Closed() {
		return fmt.Errorf("engine: multi-object runs require a closed-loop workload")
	}
	return nil
}

// shardSpec projects a MultiInstance onto the shard driver's run spec —
// the multi-object counterpart of loopSpec.
func shardSpec(m MultiInstance) shard.Spec {
	return shard.Spec{
		Spec: loop.Spec{
			PerNode:     m.Workload.PerNode,
			ThinkTime:   m.Workload.ThinkTime,
			Latency:     m.Latency,
			Arbitration: m.Arbitration,
			Seed:        m.Seed,
			Recorder:    m.Recorder,
			LinkTxTime:  m.LinkTxTime,
		},
		Objects:         m.objects(),
		Skew:            m.Workload.Skew,
		ObjectRecorders: m.ObjectRecorders,
	}
}

// runMulti is MultiProtocol.RunMulti for every built-in adapter: run
// the protocol's stepper through the shard driver on the implicit
// complete metric, then map the per-object and aggregate results onto
// Cost and summarize fairness.
func runMulti(p adapter, m MultiInstance) (MultiCost, error) {
	if err := m.validate(); err != nil {
		return MultiCost{}, err
	}
	step, err := p.stepper(m.Nodes, m.objects())
	if err != nil {
		return MultiCost{}, err
	}
	res, err := shard.Run(sim.NewCompleteTopology(m.Nodes), step, p.Name(), shardSpec(m))
	if err != nil {
		return MultiCost{}, err
	}
	mc := MultiCost{
		Aggregate: loopCost(p.Name(), m.Label, &res.Agg),
		PerObject: make([]Cost, len(res.PerObject)),
	}
	attachDists(&mc.Aggregate, m.Recorder)
	for o := range res.PerObject {
		c := loopCost(p.Name(), m.Label, &res.PerObject[o])
		var rec stats.Recorder
		if m.ObjectRecorders != nil {
			rec = m.ObjectRecorders[o]
		}
		attachDists(&c, rec)
		mc.PerObject[o] = c
	}
	mc.Fairness = summarizeFairness(mc.PerObject)
	return mc, nil
}

// summarizeFairness folds the per-object costs into the fairness
// summary.
func summarizeFairness(perObject []Cost) Fairness {
	k := len(perObject)
	f := Fairness{Objects: k}
	if k == 0 {
		return f
	}
	lats := make([]float64, k)
	avails := make([]float64, k)
	f.MinRequests = math.MaxInt64
	for o, c := range perObject {
		lats[o] = c.AvgLatency()
		avails[o] = c.Availability
		if c.Requests < f.MinRequests {
			f.MinRequests = c.Requests
		}
		if c.Requests > f.MaxRequests {
			f.MaxRequests = c.Requests
		}
	}
	sort.Float64s(lats)
	sort.Float64s(avails)
	f.MinAvgLatency = lats[0]
	f.MaxAvgLatency = lats[k-1]
	f.P99AvgLatency = nearestRank(lats, 99)
	f.MinAvailability = avails[0]
	f.MaxAvailability = avails[k-1]
	f.P1Availability = nearestRank(avails, 1)
	return f
}

// nearestRank returns the p-th percentile of an ascending slice by the
// nearest-rank rule: the smallest element with at least p% of the
// population at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// multiFromInstance projects a single-object Instance carrying a
// multi-object workload onto the MultiInstance the shard tier runs;
// Protocol.Run uses it to dispatch transparently. Graph/Tree/Root do
// not carry over — the shared network is the implicit complete metric
// and each object roots at its own home node.
func multiFromInstance(inst Instance, nodes int) MultiInstance {
	return MultiInstance{
		Label:           inst.Label,
		Nodes:           nodes,
		Workload:        inst.Workload,
		Latency:         inst.Latency,
		Arbitration:     inst.Arbitration,
		Seed:            inst.Seed,
		LinkTxTime:      inst.LinkTxTime,
		Recorder:        inst.Recorder,
		ObjectRecorders: inst.ObjectRecorders,
	}
}
