package engine

import (
	"math"
	"sort"

	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
)

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

// runSharded is the multi-object arm of Protocol.Run for every built-in
// adapter: k instances of the protocol's stepper through the shard
// driver on the implicit complete metric over n nodes, each object
// rooted at its own home node (object o at o mod n) so the k instances
// spread the root hotspot instead of stacking it — Instance.Graph, Tree
// and Root supply only n. The aggregate fills the Cost itself; PerObject
// and Fairness carry the object dimension.
func runSharded(p adapter, inst Instance, n int) (Cost, error) {
	k := inst.Workload.Objects
	step, err := p.stepper(n, k)
	if err != nil {
		return Cost{}, err
	}
	res, err := shard.Run(sim.NewCompleteTopology(n), step, p.Name(), shard.Spec{
		Spec:            loopSpec(inst),
		Objects:         k,
		Skew:            inst.Workload.Skew,
		ObjectRecorders: inst.ObjectRecorders,
	})
	if err != nil {
		return Cost{}, err
	}
	cost := loopCost(p.Name(), inst.Label, &res.Agg)
	attachDists(&cost, inst.Recorder)
	cost.PerObject = make([]Cost, k)
	for o := range cost.PerObject {
		c := loopCost(p.Name(), inst.Label, &res.PerObject[o])
		var rec stats.Recorder
		if inst.ObjectRecorders != nil {
			rec = inst.ObjectRecorders[o]
		}
		attachDists(&c, rec)
		cost.PerObject[o] = c
	}
	cost.Fairness = summarizeFairness(cost.PerObject)
	return cost, nil
}

// summarizeFairness folds the per-object costs of a multi-object run
// (at least two objects) into the fairness summary.
func summarizeFairness(perObject []Cost) Fairness {
	k := len(perObject)
	f := Fairness{Objects: k}
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
