// Latency-accounting property: every closed-loop driver keeps
// TotalLatency as Σ completion − Σ issue and keeps a per-node issue time
// only for a stats.Recorder. Over generated configs a run with a
// recorder must equal the run without one field by field, and the
// recorder's per-request latencies must sum to TotalLatency.
package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
)

// sumRecorder is a stats.Recorder that sums the latencies it is told
// and counts the negative ones, which no request can have.
type sumRecorder struct{ requests, latency, negative int64 }

func (r *sumRecorder) RecordRequest(latency int64, _ int) {
	r.requests++
	r.latency += latency
	if latency < 0 {
		r.negative++
	}
}

// latencyCase is one generated closed-loop config: n nodes, k objects,
// and the shared run knobs. A faulted case has k = 1 and a healing
// node-churn plan.
type latencyCase struct {
	n, k int
	spec loop.Spec
}

func (c latencyCase) String() string {
	lat := "sync"
	if c.spec.Latency != nil {
		lat = c.spec.Latency.Name()
	}
	return fmt.Sprintf("n=%d k=%d perNode=%d think=%d %s %s tx=%d faults=%v seed=%d",
		c.n, c.k, c.spec.PerNode, c.spec.ThinkTime, lat, c.spec.Arbitration,
		c.spec.LinkTxTime, c.spec.Faults != nil, c.spec.Seed)
}

// genLatencyCase draws a case from seed, covering FIFO, LIFO and random
// arbitration, synchronous, scaled and asynchronous latency, k ≥ 1
// objects, and, when faulted, a healing fault plan.
func genLatencyCase(seed int64, faulted bool) latencyCase {
	rng := rand.New(rand.NewSource(seed))
	c := latencyCase{n: 2 + rng.Intn(30), k: 1 + rng.Intn(5)}
	c.spec = loop.Spec{
		PerNode:     1 + rng.Intn(10),
		ThinkTime:   sim.Time(rng.Intn(4)),
		Arbitration: sim.Arbitration(rng.Intn(3)),
		LinkTxTime:  sim.Time(rng.Intn(2)),
		Seed:        seed,
	}
	switch rng.Intn(3) {
	case 1:
		c.spec.Latency = sim.SynchronousScaled(int64(2 + rng.Intn(3)))
	case 2:
		c.spec.Latency = sim.AsyncUniform(int64(1 + rng.Intn(5)))
	}
	if faulted {
		c.k = 1
		c.spec.Faults = &sim.FaultPlan{Events: sim.NodeChurn(c.n, nil, 1, 20, 5, 300, seed)}
	}
	return c
}

// latencyDriver runs one closed-loop driver on a case and returns its
// aggregate and, for multi-object drivers, its per-object counters.
type latencyDriver struct {
	name   string
	faults bool // the driver accepts a fault plan
	run    func(c latencyCase) (loop.Result, []shard.Counters, error)
}

// shardDriver runs shard.Run with the stepper step builds over the
// implicit complete topology, as the engine's multi-object tier does.
func shardDriver(proto string, step func(n, k int) (shard.Stepper, error)) func(latencyCase) (loop.Result, []shard.Counters, error) {
	return func(c latencyCase) (loop.Result, []shard.Counters, error) {
		st, err := step(c.n, c.k)
		if err != nil {
			return loop.Result{}, nil, err
		}
		res, err := shard.Run(sim.NewCompleteTopology(c.n), st, proto, shard.Spec{Spec: c.spec, Objects: c.k})
		if err != nil {
			return loop.Result{}, nil, err
		}
		return res.Agg, res.PerObject, nil
	}
}

var latencyDrivers = []latencyDriver{
	{"shard/arrow", false, shardDriver("arrow", func(n, k int) (shard.Stepper, error) { return arrow.NewShardForest(n, k) })},
	{"shard/nta", true, shardDriver("nta", func(n, k int) (shard.Stepper, error) { return shard.NewReversal(n, k, 0) })},
	{"shard/centers", true, shardDriver("centralized", func(n, k int) (shard.Stepper, error) { return centralized.NewShardCenters(n, k) })},
	// Arrow's own closed loop (one object, k ignored): the shard driver
	// under arrow's freeze → drain → repair recovery.
	{"arrow", true, func(c latencyCase) (loop.Result, []shard.Counters, error) {
		res, err := arrow.RunClosedLoop(tree.BalancedBinary(c.n), arrow.LoopConfig{Spec: c.spec, Root: graph.NodeID(c.n / 2)})
		if err != nil {
			return loop.Result{}, nil, err
		}
		return *res, nil, nil
	}},
	{"centralized", true, func(c latencyCase) (loop.Result, []shard.Counters, error) {
		res, err := centralized.RunClosedLoopTopo(sim.NewCompleteTopology(c.n), centralized.LoopConfig{Spec: c.spec, Center: graph.NodeID(c.n - 1)})
		if err != nil {
			return loop.Result{}, nil, err
		}
		return *res, nil, nil
	}},
}

// TestLatencySumNeedsNoIssueTime is the property over every closed-loop
// driver, fault-free and, where the driver accepts one, under a healing
// fault plan.
func TestLatencySumNeedsNoIssueTime(t *testing.T) {
	const cases = 40
	for _, d := range latencyDrivers {
		t.Run(d.name, func(t *testing.T) {
			var dropped int64
			for seed := int64(1); seed <= cases; seed++ {
				c := genLatencyCase(seed, d.faults && seed%2 == 0)
				plain, plainObj, err := d.run(c)
				if err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				rec := &sumRecorder{}
				withRec := c
				withRec.spec.Recorder = rec
				got, gotObj, err := d.run(withRec)
				if err != nil {
					t.Fatalf("%v, recorded: %v", c, err)
				}
				if !reflect.DeepEqual(got, plain) || !reflect.DeepEqual(gotObj, plainObj) {
					t.Errorf("%v: a recorder changed the result:\n with    %+v %+v\n without %+v %+v", c, got, gotObj, plain, plainObj)
				}
				if rec.requests != got.Requests || rec.latency != got.TotalLatency {
					t.Errorf("%v: recorder saw %d requests summing to %d, result has %d summing to %d",
						c, rec.requests, rec.latency, got.Requests, got.TotalLatency)
				}
				if rec.negative != 0 {
					t.Errorf("%v: %d requests recorded a negative latency", c, rec.negative)
				}
				// No recorder sees objects: an issue charged to the wrong
				// object's counter shows as a sum outside [0, requests ·
				// makespan].
				for o, oc := range gotObj {
					if oc.TotalLatency < 0 || oc.TotalLatency > oc.Requests*got.Makespan {
						t.Errorf("%v: object %d sums %d over %d requests in a makespan of %d", c, o, oc.TotalLatency, oc.Requests, got.Makespan)
					}
				}
				dropped += got.Dropped
			}
			if d.faults && dropped == 0 {
				t.Error("no faulted case dropped a message: the fault half is vacuous")
			}
		})
	}
}
