package nta_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestClosedLoopMatchesIvy pins the bench-only shim engine.Ivy on the
// closed loop: under asynchronous latency and random arbitration its
// run is NTA's, field for field, apart from the protocol name.
func TestClosedLoopMatchesIvy(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		inst := engine.Instance{
			Graph:       graph.Complete(20),
			Root:        3,
			Workload:    engine.NewClosedLoop(25).Think(2).MustBuild(),
			Latency:     sim.AsyncUniform(4),
			Arbitration: sim.ArbRandom,
			Seed:        seed,
		}
		run := func(p engine.Protocol) engine.Cost {
			in := inst
			in.Recorder = stats.NewDistRecorder()
			cost, err := p.Run(in)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.Name(), err)
			}
			return cost
		}
		a, b := run(engine.NTA{}), run(engine.Ivy{})
		if b.Protocol != "ivy" {
			t.Errorf("seed %d: shim names itself %q, want ivy", seed, b.Protocol)
		}
		b.Protocol = a.Protocol
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: nta and ivy closed loops diverged:\n nta: %+v\n ivy: %+v", seed, a, b)
		}
	}
}
