package engine_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// multiProtocols returns the three adapters; every one runs the
// multi-object tier through the one Protocol.Run.
func multiProtocols() []engine.Protocol {
	return []engine.Protocol{engine.Arrow{}, engine.Centralized{}, engine.NTA{}}
}

// TestShardedRunAllProtocols runs every adapter's sharded tier and checks
// the cross-protocol invariants: request conservation into the object
// partition, the fairness extremes bracketing the per-object values,
// and the aggregate recorder seeing every object's completions.
func TestShardedRunAllProtocols(t *testing.T) {
	const n, k, perNode = 12, 16, 20
	g := graph.Complete(n)
	tr := tree.BalancedBinary(n)
	for _, p := range multiProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			mc, err := p.Run(engine.Instance{
				Label:      "multi",
				Graph:      g,
				Tree:       tr,
				Workload:   engine.NewClosedLoop(perNode).Objects(k).Zipf(1.1).MustBuild(),
				Seed:       4,
				LinkTxTime: 1,
				Recorder:   stats.NewDistRecorder(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if mc.Requests != int64(n)*perNode {
				t.Errorf("aggregate completed %d requests, want %d", mc.Requests, n*perNode)
			}
			if len(mc.PerObject) != k {
				t.Fatalf("got %d per-object costs, want %d", len(mc.PerObject), k)
			}
			var sum int64
			for o, c := range mc.PerObject {
				sum += c.Requests
				if c.Requests < mc.Fairness.MinRequests || c.Requests > mc.Fairness.MaxRequests {
					t.Errorf("object %d requests %d outside fairness bounds [%d, %d]",
						o, c.Requests, mc.Fairness.MinRequests, mc.Fairness.MaxRequests)
				}
			}
			if sum != mc.Requests {
				t.Errorf("per-object requests sum to %d, aggregate says %d", sum, mc.Requests)
			}
			if mc.Latency.Count != mc.Requests {
				t.Errorf("aggregate recorder saw %d completions, want %d",
					mc.Latency.Count, mc.Requests)
			}
			if mc.Fairness.Objects != k {
				t.Errorf("fairness ranges over %d objects, want %d", mc.Fairness.Objects, k)
			}
			if mc.Fairness.MinAvailability != 1 || mc.Fairness.P1Availability != 1 {
				t.Errorf("fault-free availability fairness %+v, want all 1", mc.Fairness)
			}
			if mc.Fairness.P99AvgLatency < mc.Fairness.MinAvgLatency ||
				mc.Fairness.P99AvgLatency > mc.Fairness.MaxAvgLatency {
				t.Errorf("P99 avg latency %g outside [%g, %g]", mc.Fairness.P99AvgLatency,
					mc.Fairness.MinAvgLatency, mc.Fairness.MaxAvgLatency)
			}
		})
	}
}

// TestRunDispatchesMulti pins the transparent dispatch: a plain
// Instance whose workload carries Objects > 1 runs the sharded tier and
// fills the Cost's object dimension, so sweeps and grids gain it
// without new plumbing; the same instance without the dimension runs
// the classic closed loop on its own tree or graph and leaves both
// fields zero.
func TestRunDispatchesMulti(t *testing.T) {
	const n, k, perNode = 10, 8, 15
	g := graph.Complete(n)
	tr := tree.BalancedBinary(n)
	for _, p := range multiProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			inst := engine.Instance{
				Label:    "dispatch",
				Graph:    g,
				Tree:     tr,
				Workload: engine.NewClosedLoop(perNode).Objects(k).Zipf(1.1).MustBuild(),
				Seed:     6,
			}
			multi, err := p.Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			if len(multi.PerObject) != k || multi.Fairness.Objects != k {
				t.Errorf("multi-object cost carries %d per-object costs and fairness over %d objects, want %d",
					len(multi.PerObject), multi.Fairness.Objects, k)
			}
			inst.Workload = engine.NewClosedLoop(perNode).MustBuild()
			single, err := p.Run(inst)
			if err != nil {
				t.Fatal(err)
			}
			if single.PerObject != nil || single.Fairness != (engine.Fairness{}) {
				t.Errorf("single-object cost carries an object dimension: %d per-object costs, fairness %+v",
					len(single.PerObject), single.Fairness)
			}
			if single.Requests != multi.Requests {
				t.Errorf("single run completed %d requests, multi %d", single.Requests, multi.Requests)
			}
		})
	}
}

// TestMultiValidation covers the instance combinations the object
// dimension rejects.
func TestMultiValidation(t *testing.T) {
	const n = 8
	g := graph.Complete(n)
	tr := tree.BalancedBinary(n)
	multi := engine.NewClosedLoop(5).Objects(4).MustBuild()

	t.Run("faults on multi-object run", func(t *testing.T) {
		_, err := engine.NTA{}.Run(engine.Instance{
			Graph:    g,
			Workload: multi,
			Faults:   &sim.FaultPlan{},
		})
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("got %v, want fault rejection", err)
		}
	})
	t.Run("negative think in a literal", func(t *testing.T) {
		// Not built through Think: the literal reaches Validate directly,
		// and no adapter may run it as think time 1.
		inst := engine.Instance{Graph: g, Tree: tr, Workload: engine.Workload{PerNode: 5, ThinkTime: -3}}
		if err := inst.Validate(); err == nil || !strings.Contains(err.Error(), "ThinkTime must be >= 0, got -3") {
			t.Errorf("Validate: got %v, want ThinkTime rejection", err)
		}
		for _, p := range multiProtocols() {
			if _, err := p.Run(inst); err == nil {
				t.Errorf("%s ran a negative think time", p.Name())
			}
		}
	})
	t.Run("static multi workload", func(t *testing.T) {
		if _, err := engine.NewStatic(nil).Objects(4).Build(); err == nil {
			t.Error("builder accepted Objects on a static set")
		}
	})
	t.Run("skew without objects", func(t *testing.T) {
		if _, err := engine.NewClosedLoop(5).Zipf(1.1).Build(); err == nil {
			t.Error("builder accepted skew without an object dimension")
		}
	})
}

// TestWorkloadSpecBuild: what Build accepts is a property of the spec,
// not of the order its setters ran in — the object dimension's rules
// are checked once, at Build, and a setter only rejects what the built
// Workload could no longer show (a closed-loop knob on a static set).
func TestWorkloadSpecBuild(t *testing.T) {
	cases := []struct {
		name string
		spec *engine.WorkloadSpec
		want string // substring of the error; "" = builds
	}{
		{"objects then zipf", engine.NewClosedLoop(5).Objects(8).Zipf(1.1), ""},
		{"zipf then objects", engine.NewClosedLoop(5).Zipf(1.1).Objects(8), ""},
		{"think anywhere", engine.NewClosedLoop(5).Zipf(1.1).Think(3).Objects(8), ""},
		{"zipf alone", engine.NewClosedLoop(5).Zipf(1.1), "without Objects > 1"},
		{"zipf then one object", engine.NewClosedLoop(5).Zipf(1.1).Objects(1), "without Objects > 1"},
		{"one object then zipf", engine.NewClosedLoop(5).Objects(1).Zipf(1.1), "without Objects > 1"},
		{"negative skew first", engine.NewClosedLoop(5).Zipf(-1).Objects(8), "Skew must be >= 0"},
		{"NaN skew", engine.NewClosedLoop(5).Objects(8).Zipf(math.NaN()), "Skew must be >= 0"},
		{"negative objects", engine.NewClosedLoop(5).Objects(-2), "Objects must be >= 0"},
		{"negative think", engine.NewClosedLoop(5).Think(-1), "ThinkTime must be >= 0"},
		{"no requests", engine.NewClosedLoop(0).Objects(8), "PerNode must be >= 1"},
		{"think on a static set", engine.NewStatic(nil).Think(0), "Think applies to closed-loop"},
		{"one object on a static set", engine.NewStatic(nil).Objects(1), "Objects applies to closed-loop"},
		{"zipf on a static set", engine.NewStatic(nil).Zipf(1.1), "without Objects > 1"},
	}
	for _, c := range cases {
		w, err := c.spec.Build()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "":
			if w.PerNode != 5 || w.Objects != 8 || w.Skew != 1.1 {
				t.Errorf("%s: built %+v", c.name, w)
			}
		case err == nil || !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: got error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
