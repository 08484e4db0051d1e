// The temporary contract of loop.Spec.Workers: accepted, ignored. The
// field selected the simulator's parallel drain until the drain was
// deleted (DESIGN.md, "Scale tier (million nodes)"; ROADMAP, "Settled");
// bench/ — frozen between benchmark PRs — still sets it, so it stays
// until the benchmark PR of ROADMAP item 1, and every test in this file
// leaves with it.
// They exist so the field cannot quietly grow a second code path in the
// meantime. TestParallelCommitBitIdentical and
// TestParallelCommitLoopDriver keep the names they had when they
// compared the drain's commit against the serial loop; what they compare
// now is one serial loop against itself under different Workers values.
package repro

import (
	"reflect"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// newShardStepper builds a fresh stepper (steppers are stateful; every
// run needs its own copy) for the named protocol.
func newShardStepper(t *testing.T, proto string, n, k int) shard.Stepper {
	t.Helper()
	var (
		st  shard.Stepper
		err error
	)
	switch proto {
	case "arrow":
		st, err = arrow.NewShardForest(n, k)
	case "centralized":
		st, err = centralized.NewShardCenters(n, k)
	case "nta":
		st, err = nta.NewShardReversal(n, k)
	default:
		t.Fatalf("unknown proto %q", proto)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// shardOut is everything a multi-object run observes: the full counter
// result plus the aggregate recorder's histogram snapshots.
type shardOut struct {
	res     shard.Result
	latency stats.Dist
	hops    stats.Dist
}

func runShardOnce(t *testing.T, proto string, workers int, lat sim.LatencyModel, tx sim.Time) shardOut {
	t.Helper()
	const (
		n       = 48
		k       = 8
		perNode = 6
	)
	rec := stats.NewDistRecorder()
	res, err := shard.Run(sim.NewCompleteTopology(n), newShardStepper(t, proto, n, k), proto, shard.Spec{
		Spec: loop.Spec{
			PerNode:    perNode,
			Seed:       7,
			Latency:    lat,
			Recorder:   rec,
			Workers:    workers,
			LinkTxTime: tx,
		},
		Objects: k,
		Skew:    1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return shardOut{res: *res, latency: rec.Latency.Snapshot(), hops: rec.Hops.Snapshot()}
}

// TestParallelCommitBitIdentical sweeps Workers ∈ {1,2,4,8} across
// every stepper of the multi-object driver under capacity contention,
// counter-keyed and scaled latency, comparing the complete output —
// including exact histogram moments — against the Workers 1 run.
func TestParallelCommitBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		lat  sim.LatencyModel
		tx   sim.Time
	}{
		{"capacity", nil, 2},
		{"counter", sim.AsyncUniform(3), 0},
		{"counter/capacity", sim.AsyncUniform(3), 1},
		{"window8", sim.SynchronousScaled(8), 0},
		{"window8/capacity", sim.SynchronousScaled(8), 2},
	}
	for _, proto := range []string{"arrow", "centralized", "nta"} {
		for _, tc := range cases {
			t.Run(proto+"/"+tc.name, func(t *testing.T) {
				base := runShardOnce(t, proto, 1, tc.lat, tc.tx)
				for _, w := range []int{2, 4, 8} {
					got := runShardOnce(t, proto, w, tc.lat, tc.tx)
					if !reflect.DeepEqual(got, base) {
						t.Errorf("workers=%d diverges from Workers 1:\n got %+v\nwant %+v", w, got, base)
					}
				}
			})
		}
	}
}

// TestParallelCommitLoopDriver is the same pin on the single-object
// path with a recorder attached: arrow on an implicit binary tree with
// counter-keyed latency and link capacity, Workers 1 vs 4 vs 8.
func TestParallelCommitLoopDriver(t *testing.T) {
	run := func(workers int) (*arrow.LoopResult, stats.Dist, stats.Dist) {
		rec := stats.NewDistRecorder()
		res, err := arrow.RunClosedLoop(tree.BinaryWalker(301), arrow.LoopConfig{
			Spec: loop.Spec{
				PerNode:    5,
				Seed:       3,
				Latency:    sim.AsyncUniform(2),
				Recorder:   rec,
				Workers:    workers,
				LinkTxTime: 1,
			},
			Root: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Latency.Snapshot(), rec.Hops.Snapshot()
	}
	baseRes, baseLat, baseHops := run(1)
	for _, w := range []int{4, 8} {
		res, lat, hops := run(w)
		if !reflect.DeepEqual(res, baseRes) || lat != baseLat || hops != baseHops {
			t.Errorf("workers=%d diverges from Workers 1:\n got %+v %+v %+v\nwant %+v %+v %+v",
				w, res, lat, hops, baseRes, baseLat, baseHops)
		}
	}
}

// TestWorkersAccepted pins the contract at each of the three closed-loop
// entry points: Workers 4 returns the Result of Workers 0, the drain
// half of the telemetry is zero, and the scheduler half equals the
// Workers 0 run's.
func TestWorkersAccepted(t *testing.T) {
	const n, perNode = 301, 5
	complete := sim.NewCompleteTopology(n)
	protos := []struct {
		name string
		run  func(loop.Spec) (*loop.Result, error)
	}{
		{"arrow", func(spec loop.Spec) (*loop.Result, error) {
			return arrow.RunClosedLoop(tree.BinaryWalker(n), arrow.LoopConfig{Spec: spec})
		}},
		{"centralized", func(spec loop.Spec) (*loop.Result, error) {
			return centralized.RunClosedLoopTopo(complete, centralized.LoopConfig{Spec: spec})
		}},
		{"nta", func(spec loop.Spec) (*loop.Result, error) {
			return nta.RunClosedLoopTopo(complete, nta.LoopConfig{Spec: spec})
		}},
	}
	for _, p := range protos {
		t.Run(p.name, func(t *testing.T) {
			run := func(workers int) (*loop.Result, sim.DrainStats) {
				var ds sim.DrainStats
				// A think time past the ring, so Sched has counts to compare.
				res, err := p.run(loop.Spec{
					PerNode: perNode, Seed: 3, ThinkTime: 600, Latency: sim.SynchronousScaled(6),
					LinkTxTime: 1, Workers: workers, DrainStats: &ds,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, ds
			}
			want, wantDS := run(0)
			got, ds := run(4)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Workers 4 changed the result:\n got %+v\nwant %+v", got, want)
			}
			if ds.WindowWidth != 0 || ds.Windows != 0 || ds.BatchEvents != 0 || ds.MeanBatch() != 0 {
				t.Errorf("Workers 4 reported drain telemetry %+v; there is no drain", ds)
			}
			if ds.Sched != wantDS.Sched || ds.Sched.FarPushes+ds.Sched.HeapPushes == 0 {
				t.Errorf("scheduler telemetry: Workers 4 %+v, Workers 0 %+v (want equal, pushes past the ring > 0)", ds.Sched, wantDS.Sched)
			}
		})
	}
}
