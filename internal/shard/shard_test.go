package shard_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/ivy"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
)

// steppers builds one shard stepper per protocol for an n-node, k-object
// run; the table drives the cross-protocol tests.
func steppers(t *testing.T, n, k int) map[string]shard.Stepper {
	t.Helper()
	forest, err := arrow.NewShardForest(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := nta.NewShardReversal(n, k)
	if err != nil {
		t.Fatal(err)
	}
	ctr, err := centralized.NewShardCenters(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]shard.Stepper{
		"arrow":       forest,
		"nta":         rev,
		"centralized": ctr,
	}
}

// TestNTAMatchesIvy pins the bench-only shim ivy.NewShardDirectory: a
// multi-object run over it is the run over nta.NewShardReversal.
func TestNTAMatchesIvy(t *testing.T) {
	const n, k, perNode = 16, 8, 20
	spec := shard.Spec{
		Spec:    loop.Spec{PerNode: perNode, Seed: 3},
		Objects: k,
		Skew:    1.1,
	}
	rev, err := nta.NewShardReversal(n, k)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := ivy.NewShardDirectory(n, k)
	if err != nil {
		t.Fatal(err)
	}
	a, err := shard.Run(sim.NewCompleteTopology(n), rev, "nta", spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shard.Run(sim.NewCompleteTopology(n), dir, "ivy", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nta and ivy shard runs diverged:\n nta %+v\n ivy %+v", a.Agg, b.Agg)
	}
}

// TestCrossWorkerBitIdentity pins that loop.Spec.Workers is ignored on
// the multi-object path: every protocol's full result — aggregate,
// every per-object counter set, and per-object latency histogram
// snapshots — is bit-identical whatever the field says. (It compared the
// serial loop with the parallel drain until the drain was deleted; it
// leaves with the field, ROADMAP item 1.)
func TestCrossWorkerBitIdentity(t *testing.T) {
	const n, k, perNode = 32, 64, 30
	run := func(name string, workers int) (*shard.Result, []stats.Dist) {
		recs := make([]stats.Recorder, k)
		dists := make([]*stats.DistRecorder, k)
		for o := range recs {
			dists[o] = stats.NewDistRecorder()
			recs[o] = dists[o]
		}
		step := steppers(t, n, k)[name]
		res, err := shard.Run(sim.NewCompleteTopology(n), step, name, shard.Spec{
			Spec:            loop.Spec{PerNode: perNode, Seed: 11, Workers: workers, LinkTxTime: 1},
			Objects:         k,
			Skew:            1.1,
			ObjectRecorders: recs,
		})
		if err != nil {
			t.Fatal(err)
		}
		snaps := make([]stats.Dist, k)
		for o := range snaps {
			snaps[o] = dists[o].Latency.Snapshot()
		}
		return res, snaps
	}
	for _, name := range []string{"arrow", "nta", "centralized"} {
		t.Run(name, func(t *testing.T) {
			serial, serialSnaps := run(name, 1)
			parallel, parallelSnaps := run(name, 4)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("results diverge across Workers values:\n 1 %+v\n 4 %+v",
					serial.Agg, parallel.Agg)
			}
			if !reflect.DeepEqual(serialSnaps, parallelSnaps) {
				t.Errorf("per-object histogram snapshots diverge across worker counts")
			}
		})
	}
}

// TestObjectConservation checks the per-object partition: object request
// counts must sum to the total and match the Zipf draws exactly.
func TestObjectConservation(t *testing.T) {
	const n, k, perNode = 16, 32, 25
	spec := shard.Spec{
		Spec:    loop.Spec{PerNode: perNode, Seed: 5},
		Objects: k,
		Skew:    1.1,
	}
	step := steppers(t, n, k)["arrow"]
	res, err := shard.Run(sim.NewCompleteTopology(n), step, "arrow", spec)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, po := range res.PerObject {
		sum += po.Requests
	}
	if sum != res.Agg.Requests || sum != int64(n)*perNode {
		t.Errorf("per-object requests sum to %d, want %d", sum, int64(n)*perNode)
	}
}

// TestHotObjectSkew pins the Zipf head: at s = 1.1 the hottest object
// must draw strictly more requests than the coldest, and the head
// object's share must dominate the uniform share.
func TestHotObjectSkew(t *testing.T) {
	const n, k, perNode = 16, 32, 50
	spec := shard.Spec{
		Spec:    loop.Spec{PerNode: perNode, Seed: 9},
		Objects: k,
		Skew:    1.1,
	}
	step := steppers(t, n, k)["nta"]
	res, err := shard.Run(sim.NewCompleteTopology(n), step, "nta", spec)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(n) * perNode
	hot := res.PerObject[0].Requests
	cold := res.PerObject[k-1].Requests
	if hot <= cold {
		t.Errorf("object 0 drew %d requests, tail object %d — skew inverted", hot, cold)
	}
	if hot*int64(k) <= 2*total {
		t.Errorf("hot object's share %d/%d does not dominate the uniform share", hot, total)
	}
}

// TestSharedLinkCapacity checks the contention model end to end: with a
// positive LinkTxTime the shared links serialize the combined traffic,
// so the same multi-object run must take strictly longer than with
// infinite capacity, while completing the same requests.
func TestSharedLinkCapacity(t *testing.T) {
	const n, k, perNode = 16, 8, 40
	run := func(tx sim.Time) *shard.Result {
		step := steppers(t, n, k)["centralized"]
		res, err := shard.Run(sim.NewCompleteTopology(n), step, "centralized", shard.Spec{
			Spec:    loop.Spec{PerNode: perNode, Seed: 2, LinkTxTime: tx},
			Objects: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	capped := run(4)
	if capped.Agg.Requests != free.Agg.Requests {
		t.Fatalf("capacity changed the request count: %d vs %d",
			capped.Agg.Requests, free.Agg.Requests)
	}
	if capped.Agg.Makespan <= free.Agg.Makespan {
		t.Errorf("LinkTxTime=4 makespan %d not longer than uncapped %d",
			capped.Agg.Makespan, free.Agg.Makespan)
	}
	if capped.Agg.TotalLatency <= free.Agg.TotalLatency {
		t.Errorf("LinkTxTime=4 total latency %d not above uncapped %d",
			capped.Agg.TotalLatency, free.Agg.TotalLatency)
	}
}

// TestSpecValidation covers the driver's refusal cases.
func TestSpecValidation(t *testing.T) {
	const n = 8
	step := steppers(t, n, 4)["nta"]
	cases := []struct {
		name string
		spec shard.Spec
		want string // substring of the error; "" = any
	}{
		{name: "zero objects", spec: shard.Spec{Spec: loop.Spec{PerNode: 1}}},
		{name: "negative skew", spec: shard.Spec{Spec: loop.Spec{PerNode: 1}, Objects: 4, Skew: -1}},
		{name: "NaN skew", spec: shard.Spec{Spec: loop.Spec{PerNode: 1}, Objects: 4, Skew: math.NaN()},
			want: "Skew must be >= 0"},
		{name: "no requests", spec: shard.Spec{Objects: 4}},
		// Stored truncated, 2³² + 3 requests per node would run 3 and only
		// then fail the completion count: the refusal must come up front.
		{name: "per-node beyond int32", spec: shard.Spec{Spec: loop.Spec{PerNode: 1<<32 + 3}, Objects: 4},
			want: "PerNode must be <="},
		{name: "faults", spec: shard.Spec{
			Spec:    loop.Spec{PerNode: 1, Faults: &sim.FaultPlan{}},
			Objects: 4,
		}},
		{name: "recorder length", spec: shard.Spec{
			Spec:            loop.Spec{PerNode: 1},
			Objects:         4,
			ObjectRecorders: make([]stats.Recorder, 3),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := shard.Run(sim.NewCompleteTopology(n), step, "nta", tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("spec %+v: got error %v, want one mentioning %q", tc.spec, err, tc.want)
			}
		})
	}
}
