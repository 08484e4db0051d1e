package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
)

// tierRun is one closed-loop configuration of a golden: its row key and
// the run, which fills the spec's DrainStats.
type tierRun struct {
	key string
	run func(spec loop.Spec) (*loop.Result, error)
	// spec is the configuration's own; the test adds DrainStats.
	spec loop.Spec
}

// closedRun is engine's single-object closed-loop dispatch for a
// protocol name: the driver each adapter's closed method calls.
func closedRun(proto string, inst engine.Instance) func(loop.Spec) (*loop.Result, error) {
	return func(spec loop.Spec) (*loop.Result, error) {
		switch proto {
		case "arrow":
			return arrow.RunClosedLoop(inst.Tree, arrow.LoopConfig{Spec: spec, Root: inst.Root})
		case "centralized":
			return centralized.RunClosedLoop(inst.Graph, centralized.LoopConfig{Spec: spec, Center: inst.Root})
		case "nta":
			return nta.RunClosedLoop(inst.Graph, nta.LoopConfig{Spec: spec, Root: inst.Root})
		}
		return nil, fmt.Errorf("no closed loop for %q", proto)
	}
}

// goldenRows reads an analysis golden document and returns its rows.
func goldenRows[C, R any](t *testing.T, name string) []R {
	t.Helper()
	data, err := os.ReadFile("internal/analysis/testdata/" + name + "_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc analysis.Document[C, R]
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s golden: %v", name, err)
	}
	return doc.Rows
}

// TestClosedLoopsStayOffHeap guards the scheduler's premise: the paper's
// closed loops push nothing two or more epochs ahead, so none of their
// events waits in the heap tier — the ring and the next-epoch list carry
// them all. It runs every fault-free closed-loop configuration the perf,
// shard, scale and fig10 goldens run and requires on every row
// HeapPushes == 0 and ring + next-epoch + heap pushes == the events the
// run consumed. Each row's events (fig10's makespan, the one count its
// golden table prints) must equal the golden's, so the configurations
// here stay the goldens' own. A driver that arms a timer 1,024 ticks
// ahead — the centralized coordinator's serve timers before its queue
// moved into the driver — fails it.
func TestClosedLoopsStayOffHeap(t *testing.T) {
	want := map[string]int64{} // golden events (fig10: makespan) by row key
	var runs []tierRun

	fig10, err := analysis.BaselinesClosedLoop([]int{4, 8}, 50, 1, 1, engine.Arrow{}, engine.Centralized{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fig10 {
		want[fmt.Sprintf("fig10/%s/n=%d", r.Protocol, r.N)] = int64(r.Makespan)
	}
	cells, err := analysis.BaselinesClosedLoopGrid([]int{4, 8}, 50, 1, engine.Arrow{}, engine.Centralized{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		inst, name := c.Instance, c.Protocol.Name()
		runs = append(runs, tierRun{
			key:  fmt.Sprintf("fig10/%s/n=%d", name, inst.Tree.NumNodes()),
			run:  closedRun(name, inst),
			spec: loop.Spec{PerNode: inst.Workload.PerNode, Seed: inst.Seed},
		})
	}

	for _, r := range goldenRows[analysis.PerfConfig, analysis.PerfRow](t, "perf") {
		want[fmt.Sprintf("perf/%s/n=%d/%s", r.Protocol, r.N, r.Workload)] = r.Events
	}
	workloads := analysis.PerfWorkloads()
	for i, n := range []int{64, 76} {
		inst := engine.Instance{Graph: graph.Complete(n), Tree: tree.BalancedBinary(n)}
		for j, w := range workloads {
			seed := engine.DeriveSeed(1, i*len(workloads)+j)
			for _, p := range []string{"arrow", "nta", "centralized"} {
				runs = append(runs, tierRun{
					key:  fmt.Sprintf("perf/%s/n=%d/%s", p, n, w.Name),
					run:  closedRun(p, inst),
					spec: loop.Spec{PerNode: 500, ThinkTime: w.Think, Latency: w.Latency, Seed: seed},
				})
			}
		}
	}

	for _, r := range goldenRows[analysis.ScaleConfig, analysis.ScaleRow](t, "scale") {
		want[fmt.Sprintf("scale/%s/%s/n=%d", r.Protocol, r.Topology, r.N)] = r.Events
	}
	for i, n := range []int{2000, 5000} {
		side := int(math.Round(math.Sqrt(float64(n))))
		spec := loop.Spec{PerNode: 20, Seed: sim.DeriveSeed(1, i)}
		runs = append(runs,
			tierRun{fmt.Sprintf("scale/arrow/binary-tree/n=%d", n), func(spec loop.Spec) (*loop.Result, error) {
				return arrow.RunClosedLoop(tree.BinaryWalker(n), arrow.LoopConfig{Spec: spec})
			}, spec},
			tierRun{fmt.Sprintf("scale/arrow/grid/n=%d", side*side), func(spec loop.Spec) (*loop.Result, error) {
				return arrow.RunClosedLoop(tree.GridWalker(side, side), arrow.LoopConfig{Spec: spec})
			}, spec},
			tierRun{fmt.Sprintf("scale/centralized/complete/n=%d", n), func(spec loop.Spec) (*loop.Result, error) {
				return centralized.RunClosedLoopTopo(sim.NewCompleteTopology(n), centralized.LoopConfig{Spec: spec})
			}, spec},
			tierRun{fmt.Sprintf("scale/nta/complete/n=%d", n), func(spec loop.Spec) (*loop.Result, error) {
				return nta.RunClosedLoopTopo(sim.NewCompleteTopology(n), nta.LoopConfig{Spec: spec})
			}, spec},
		)
	}

	for _, r := range goldenRows[analysis.ShardConfig, analysis.ShardRow](t, "shard") {
		want[fmt.Sprintf("shard/%s/k=%d/s=%g", r.Protocol, r.Objects, r.Skew)] = r.Events
	}
	const shardN = 32
	steppers := []struct {
		name string
		make func(n, k int) (shard.Stepper, error)
	}{
		{"arrow", func(n, k int) (shard.Stepper, error) { return arrow.NewShardForest(n, k) }},
		{"centralized", func(n, k int) (shard.Stepper, error) { return centralized.NewShardCenters(n, k) }},
		{"nta", func(n, k int) (shard.Stepper, error) { return nta.NewShardReversal(n, k) }},
	}
	skews := []float64{0, 1.1}
	for i, k := range []int{16, 128} {
		for j, skew := range skews {
			spec := loop.Spec{PerNode: 50, Seed: engine.DeriveSeed(1, i*len(skews)+j), LinkTxTime: 1}
			for _, st := range steppers {
				runs = append(runs, tierRun{fmt.Sprintf("shard/%s/k=%d/s=%g", st.name, k, skew), func(spec loop.Spec) (*loop.Result, error) {
					step, err := st.make(shardN, k)
					if err != nil {
						return nil, err
					}
					res, err := shard.Run(sim.NewCompleteTopology(shardN), step, st.name, shard.Spec{Spec: spec, Objects: k, Skew: skew})
					if err != nil {
						return nil, err
					}
					return &res.Agg, nil
				}, spec})
			}
		}
	}

	if len(runs) != len(want) {
		t.Fatalf("%d configurations for %d golden rows", len(runs), len(want))
	}
	var next int64
	for _, r := range runs {
		var ds sim.DrainStats
		spec := r.spec
		spec.DrainStats = &ds
		res, err := r.run(spec)
		if err != nil {
			t.Fatalf("%s: %v", r.key, err)
		}
		got := res.Events
		if r.key[:6] == "fig10/" {
			got = int64(res.Makespan)
		}
		if w, ok := want[r.key]; !ok || got != w {
			t.Errorf("%s: %d, golden has %d (present %v): not the golden's configuration", r.key, got, w, ok)
		}
		st := ds.Sched
		if st.HeapPushes != 0 {
			t.Errorf("%s: %d heap pushes, want 0 (stats %+v)", r.key, st.HeapPushes, st)
		}
		if sum := st.RingPushes + st.FarPushes + st.HeapPushes; sum != res.Events {
			t.Errorf("%s: ring + next-epoch + heap pushes = %d, events %d", r.key, sum, res.Events)
		}
		next += st.FarPushes
	}
	t.Logf("%d closed-loop configurations: no heap push, %d next-epoch pushes", len(runs), next)
}
