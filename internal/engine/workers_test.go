package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// TestClosedLoopBitIdenticalAcrossDrainWorkers is the parallel drain's
// end-to-end guarantee at the engine layer: for every protocol adapter
// and a spread of closed-loop workloads, the full Cost — every counter,
// the makespan, the event count and the latency/hops distribution
// snapshots — is bit-identical between the serial run and the
// lookahead-windowed parallel drain at any worker count. Protocols that
// normalize Workers away (Ivy, centralized) ride along so the guarantee
// reads "any Instance.Workers value is safe", not "only where sharding
// engages".
func TestClosedLoopBitIdenticalAcrossDrainWorkers(t *testing.T) {
	const n = 96
	g := graph.Complete(n)
	tr := tree.BalancedBinary(n)
	workloads := []struct {
		name    string
		perNode int
		think   sim.Time
		model   sim.LatencyModel
	}{
		{"sync/saturated", 6, 0, nil},
		{"sync/think16", 4, 16, nil},
		{"async4/think3", 4, 3, sim.AsyncUniform(4)},
		// Scaled synchronous latency widens the drain's lookahead window
		// to 8 fused ticks per barrier; think 3 puts every think timer
		// mid-window (the in-shard sub-queue), think 16 puts them past it.
		{"sync8/think3", 4, 3, sim.SynchronousScaled(8)},
		{"sync8/think16", 4, 16, sim.SynchronousScaled(8)},
	}
	protocols := []Protocol{Arrow{}, NTA{}, Ivy{}, Centralized{}}
	run := func(p Protocol, wl int, workers int) Cost {
		rec := stats.NewDistRecorder()
		cost, err := p.Run(Instance{
			Label:    fmt.Sprintf("%s/w=%d", workloads[wl].name, workers),
			Graph:    g,
			Tree:     tr,
			Root:     0,
			Workload: NewClosedLoop(workloads[wl].perNode).Think(workloads[wl].think).MustBuild(),
			Latency:  workloads[wl].model,
			Seed:     DeriveSeed(7, wl),
			Recorder: rec,
			Workers:  workers,
		})
		if err != nil {
			t.Fatalf("%s %s workers=%d: %v", p.Name(), workloads[wl].name, workers, err)
		}
		return cost
	}
	for _, p := range protocols {
		for wl := range workloads {
			want := run(p, wl, 1)
			for _, workers := range []int{0, 2, 3, 7} {
				got := run(p, wl, workers)
				// Labels differ by construction; everything else must not.
				got.Label = want.Label
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: workers=%d diverged from serial:\n got:  %#v\nwant: %#v",
						p.Name(), workloads[wl].name, workers, got, want)
				}
			}
		}
	}
}
