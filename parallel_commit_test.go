// Parallel-drain identity pin: the drain's commit (handlers on node
// shards, logs replayed through the serial send path) must reproduce
// the serial drain bit for bit — counters, makespan, event counts AND
// the latency/hops histogram moments — for every ShardSafe stepper, at
// every worker count, under both link-capacity contention
// (LinkTxTime > 0) and randomized per-message latency (the counter-RNG
// model). This is
// the repo-level witness for the scale tier's core invariant: Workers
// is a throughput knob, never a semantics knob.
package repro

import (
	"reflect"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/ivy"
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
	case "ivy":
		st, err = ivy.NewShardDirectory(n, k)
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

// TestParallelCommitBitIdentical sweeps workers ∈ {1,2,4,8} across
// every ShardSafe stepper under capacity contention and counter-RNG
// latency, comparing the complete output — including exact histogram
// moments — against the serial run.
func TestParallelCommitBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		lat  sim.LatencyModel
		tx   sim.Time
	}{
		// Window width 1: the unit-MinDelay models, one tick per barrier.
		{"capacity", nil, 2},
		{"counter", sim.AsyncCounter(3), 0},
		{"counter/capacity", sim.AsyncCounter(3), 1},
		// Window width L = 8: the scaled synchronous model fuses eight
		// ticks per barrier, so every driver think timer (1 tick) fires
		// mid-window through the in-shard sub-queue.
		{"window8", sim.SynchronousScaled(8), 0},
		{"window8/capacity", sim.SynchronousScaled(8), 2},
	}
	for _, proto := range []string{"arrow", "centralized", "nta", "ivy"} {
		for _, tc := range cases {
			t.Run(proto+"/"+tc.name, func(t *testing.T) {
				base := runShardOnce(t, proto, 1, tc.lat, tc.tx)
				for _, w := range []int{2, 4, 8} {
					got := runShardOnce(t, proto, w, tc.lat, tc.tx)
					if !reflect.DeepEqual(got, base) {
						t.Errorf("workers=%d diverges from serial:\n got %+v\nwant %+v", w, got, base)
					}
				}
			})
		}
	}
}

// TestParallelCommitLoopDriver covers the single-object loop driver's
// path through the parallel drain (the scale tier's actual hot path):
// arrow on an implicit binary tree with counter-RNG latency and link
// capacity, workers 1 vs 4 vs 8.
func TestParallelCommitLoopDriver(t *testing.T) {
	run := func(workers int) (*arrow.LoopResult, stats.Dist, stats.Dist) {
		rec := stats.NewDistRecorder()
		res, err := arrow.RunClosedLoop(tree.BinaryWalker(301), arrow.LoopConfig{
			Spec: loop.Spec{
				PerNode:    5,
				Seed:       3,
				Latency:    sim.AsyncCounter(2),
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
			t.Errorf("workers=%d diverges from serial:\n got %+v %+v %+v\nwant %+v %+v %+v",
				w, res, lat, hops, baseRes, baseLat, baseHops)
		}
	}
}

// TestWindowedDrainLoopDriver is TestParallelCommitLoopDriver's
// wide-window sibling: the same implicit-tree closed loop under
// SynchronousScaled(6) with link capacity, so every barrier fuses six
// ticks and the drain telemetry must show it. The telemetry is read
// through the loop.Spec out-pointer — deliberately outside the compared
// result, since barrier counts legitimately differ across worker
// counts.
func TestWindowedDrainLoopDriver(t *testing.T) {
	run := func(workers int) (*arrow.LoopResult, stats.Dist, stats.Dist, sim.DrainStats) {
		rec := stats.NewDistRecorder()
		var ds sim.DrainStats
		res, err := arrow.RunClosedLoop(tree.BinaryWalker(301), arrow.LoopConfig{
			Spec: loop.Spec{
				PerNode:    5,
				Seed:       3,
				Latency:    sim.SynchronousScaled(6),
				Recorder:   rec,
				Workers:    workers,
				LinkTxTime: 1,
				DrainStats: &ds,
			},
			Root: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rec.Latency.Snapshot(), rec.Hops.Snapshot(), ds
	}
	baseRes, baseLat, baseHops, baseDS := run(1)
	if baseDS.WindowWidth != 1 || baseDS.Windows != 0 {
		t.Fatalf("serial run reported parallel drain stats %+v", baseDS)
	}
	for _, w := range []int{2, 4, 8} {
		res, lat, hops, ds := run(w)
		if !reflect.DeepEqual(res, baseRes) || lat != baseLat || hops != baseHops {
			t.Errorf("workers=%d diverges from serial:\n got %+v %+v %+v\nwant %+v %+v %+v",
				w, res, lat, hops, baseRes, baseLat, baseHops)
		}
		if ds.WindowWidth != 6 {
			t.Errorf("workers=%d: window width %d, want 6", w, ds.WindowWidth)
		}
		if ds.Windows < 1 || ds.MeanBatch() <= 0 {
			t.Errorf("workers=%d: no fused parallel window ran (stats %+v)", w, ds)
		}
	}
}
