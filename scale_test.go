// Scale-tier memory pin: the whole point of the implicit topologies and
// the flat driver state is that per-node memory stays constant as
// n grows — no LCA tables (O(n log n)), no distance matrices (O(n²)),
// no per-node closures. This test turns that claim into a regression
// gate on allocated bytes per node.
package repro

import (
	gort "runtime"
	"testing"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/loop"
	"repro/internal/nta"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
)

// allocPerNode measures cumulative heap allocation (TotalAlloc delta)
// of one closed-loop run over n nodes, divided by the node count.
// TotalAlloc is the honest metric: transient garbage counts, so a
// per-request allocation would scale the number with PerNode·n instead
// of n and blow the gate. run builds the topology too, so its
// allocations are counted.
func allocPerNode(t *testing.T, n int, spec loop.Spec, run func(loop.Spec) (*loop.Result, error)) float64 {
	t.Helper()
	var ms gort.MemStats
	gort.GC()
	gort.ReadMemStats(&ms)
	before := ms.TotalAlloc
	res, err := run(spec)
	gort.ReadMemStats(&ms)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * int64(spec.PerNode); res.Requests != want {
		t.Fatalf("n=%d: completed %d of %d requests", n, res.Requests, want)
	}
	return float64(ms.TotalAlloc-before) / float64(n)
}

// arrowAllocPerNode is allocPerNode for arrow on an implicit binary tree.
func arrowAllocPerNode(t *testing.T, n int, spec loop.Spec) float64 {
	return allocPerNode(t, n, spec, func(spec loop.Spec) (*loop.Result, error) {
		return arrow.RunClosedLoop(tree.BinaryWalker(n), arrow.LoopConfig{Spec: spec, Root: 0})
	})
}

// centralAllocPerNode is allocPerNode for the centralized closed loop on
// the implicit complete topology.
func centralAllocPerNode(t *testing.T, n int, spec loop.Spec) float64 {
	return allocPerNode(t, n, spec, func(spec loop.Spec) (*loop.Result, error) {
		return centralized.RunClosedLoopTopo(sim.NewCompleteTopology(n), centralized.LoopConfig{Spec: spec})
	})
}

// TestScaleBytesPerNodeFlat pins the fixed-memory property from 10k to
// 100k nodes: bytes/node may not grow by more than 50% across the
// decade (allocator size-class and slice-growth rounding move it a
// little), and stays under an absolute per-node budget that a single
// stray O(n log n) table would immediately break (binary-lifting parent
// tables alone cost ~4·log₂(n) ≈ 68 bytes/node at 100k). Each
// budget is what its row measures plus 10 %. Arrow reads 60 B/node: the
// 32-byte event cell of an arena the driver reserves in one step
// (Simulator.Reserve; ramping it up through append cost 445, and 48-byte
// cells read 92), the driver's 16-byte nodeState, and 12 bytes of Walker
// and link arrays. So an issue time kept per node without a recorder
// (68 B/node) fails its 66-byte budget. A -race build's allocator counts
// more (100 B/node), so there only the former 220-byte budget applies.
// Centralized reads 40 B/node: the arena of the n initial issue timers
// and the 8-byte per-node record, so the 16-byte record that kept an
// issue time (48) fails its 44-byte budget. The coordinator's queue is
// linked through that record, so a second n-entry structure for it (the
// binary heap that once held one serve-finish timer per request cost
// ~340 B/node in append growth) breaks its budget too.
//
// The recorder rows attach a stats.Recorder that keeps three sums, so
// what they add is the driver's issue-time column alone: at most
// 8 B/node (plus the allocator's rounding of the column to whole pages)
// over the same run without a recorder.
func TestScaleBytesPerNodeFlat(t *testing.T) {
	const perNode = 4
	arrowBudget, centralBudget := 66.0, 44.0
	if raceEnabled {
		arrowBudget, centralBudget = 220, 170
	}
	plain := loop.Spec{PerNode: perNode}
	recorded := loop.Spec{PerNode: perNode, Recorder: &sumRecorder{}}
	arrowRun := func(spec loop.Spec) func(int) float64 {
		return func(n int) float64 { return arrowAllocPerNode(t, n+1, spec) }
	}
	centralRun := func(spec loop.Spec) func(int) float64 {
		return func(n int) float64 { return centralAllocPerNode(t, n, spec) }
	}
	rows := []struct {
		name       string
		budget     float64
		run, withR func(n int) float64
	}{
		{"arrow", arrowBudget, arrowRun(plain), arrowRun(recorded)},
		{"centralized", centralBudget, centralRun(plain), centralRun(recorded)},
	}
	const n = 100_000
	// The column is one allocation of 8n bytes, rounded up to whole
	// 8 KB pages.
	colBudget := 8 + 8192.0/n
	for _, r := range rows {
		// A runtime background allocation can only add to a reading,
		// so each 100k figure is the smaller of two.
		small, big := r.run(n/10), min(r.run(n), r.run(n))
		t.Logf("%s bytes/node: n=10k %.1f, n=100k %.1f", r.name, small, big)
		if big > small*1.5 {
			t.Errorf("%s: bytes/node grew from %.1f (10k) to %.1f (100k): not flat", r.name, small, big)
		}
		if big > r.budget {
			t.Errorf("%s: bytes/node at 100k = %.1f exceeds the %.0f-byte budget", r.name, big, r.budget)
		}
		withR := min(r.withR(n), r.withR(n))
		t.Logf("%s with a recorder: n=100k %.1f (+%.3f)", r.name, withR, withR-big)
		if withR-big > colBudget {
			t.Errorf("%s: a recorder costs %.2f bytes/node at 100k, more than its %.2f-byte issue-time column", r.name, withR-big, colBudget)
		}
	}
}

// TestShardBytesPerObject is the per-object row of the same gate: what
// one more object costs a multi-object shard.Run, measured as the bytes
// a run at k = 1 024 allocates beyond one at k = 1, per extra object,
// with each stepper (its k×n pointer table) built outside the measured
// span. It reads 96 B: the 48-byte Counters, and 48 bytes of Zipf table
// (an 8-byte cumulative weight and a guide of eight 4-byte entries,
// which the allocator rounds up to whole pages). The budget is that plus
// 10 %, so per-object counters in the 136-byte loop.Result shape (184
// B/object) fail it.
func TestShardBytesPerObject(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's allocator counts bytes differently")
	}
	const n, k, perNode = 64, 1024, 4
	topo := sim.NewCompleteTopology(n)
	run := func(objects int) uint64 {
		step, err := arrow.NewShardForest(n, objects)
		if err != nil {
			t.Fatal(err)
		}
		var ms gort.MemStats
		gort.GC()
		gort.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := shard.Run(topo, step, "arrow", shard.Spec{Spec: loop.Spec{PerNode: perNode, Seed: 1}, Objects: objects, Skew: 1.1})
		gort.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.Requests != n*perNode {
			t.Fatalf("k=%d: completed %d of %d requests", objects, res.Agg.Requests, n*perNode)
		}
		return ms.TotalAlloc - before
	}
	one, many := run(1), run(k)
	perObject := float64(many-one) / (k - 1)
	t.Logf("shard.Run bytes: k=1 %d, k=%d %d, %.1f per extra object", one, k, many, perObject)
	if perObject > 105 {
		t.Errorf("one more object costs %.1f bytes, over the 105-byte budget", perObject)
	}
}

// TestCapacityBytesPerNodeFlat pins the link clocks to the messages in
// flight: an NTA closed loop (one object, so every find chases one tail)
// on the implicit complete metric with LinkTxTime 1 keeps a capacity
// clock, and under AsyncUniform(4) a FIFO clamp clock beside it. Either
// is an expiring clock: a 56-byte outbox per sending node and a table of
// the links that spill past it with a reservation or arrival still ahead
// of the simulated clock — about n of the n² link ids in all — so
// bytes/node stays flat from 10⁴ to 10⁵ nodes. It may double across the
// decade, since the table grows by doubling and its rounding shows, and
// stays under budgets well above what the rows measure (178 and 164
// B/node synchronous, 287 and 262 asynchronous, with bits.Len(n-1)-bit
// pointer cells; 178/166 and 287/264 with two- and four-byte cells,
// 194/182 and 302/280 with 48-byte event cells; the table alone read
// 189 and 252, 399 and 588). One slot per link id allocated 64 500 B/node at
// 10⁵ synchronous and twice that asynchronous.
func TestCapacityBytesPerNodeFlat(t *testing.T) {
	rows := []struct {
		name   string
		lat    sim.LatencyModel
		budget float64
	}{
		{"sync", nil, 600},
		{"async-uniform-4", sim.AsyncUniform(4), 900},
	}
	for _, r := range rows {
		run := func(n int) float64 {
			spec := loop.Spec{PerNode: 5, LinkTxTime: 1, Latency: r.lat, Seed: 1}
			return allocPerNode(t, n, spec, func(spec loop.Spec) (*loop.Result, error) {
				return nta.RunClosedLoopTopo(sim.NewCompleteTopology(n), nta.LoopConfig{Spec: spec})
			})
		}
		small, big := run(10_000), run(100_000)
		t.Logf("nta capacity %s bytes/node: n=10k %.1f, n=100k %.1f", r.name, small, big)
		if big > 2*small {
			t.Errorf("%s: bytes/node grew from %.1f (10k) to %.1f (100k): not flat", r.name, small, big)
		}
		if big > r.budget {
			t.Errorf("%s: bytes/node at 100k = %.1f exceeds the %.0f-byte budget", r.name, big, r.budget)
		}
	}
}

// TestCentralServeQueueStaysOnRing gates "the coordinator's queue is
// not in the scheduler" as a count, not a wall-clock impression: in a
// 20 000-node centralized closed loop the queue lives in the driver and
// only the one pending serve timer, one tick ahead, is an event, so
// only the pushes that cross into the next 512-tick epoch leave the
// ring (702 of the 100 000 requests' pushes) and nothing reaches the
// heap.
// While every request armed its own serve-finish timer up to n ticks
// ahead, far_pushes read about one per request.
func TestCentralServeQueueStaysOnRing(t *testing.T) {
	const n, perNode = 20_000, 5
	var ds sim.DrainStats
	centralAllocPerNode(t, n, loop.Spec{PerNode: perNode, DrainStats: &ds})
	st := ds.Sched
	t.Logf("scheduler counters: %+v", st)
	if st.HeapPushes != 0 {
		t.Errorf("heap_pushes = %d, want 0: the serve queue reached the binary heap", st.HeapPushes)
	}
	if requests := int64(n * perNode); st.FarPushes*100 >= requests {
		t.Errorf("far_pushes = %d for %d requests, want under 1%%: the serve queue is parked past the ring", st.FarPushes, requests)
	}
}

// TestSchedPushesByTier pins where small closed loops' pushes land in
// the scheduler — the tick ring, the next-epoch list or the heap two or
// more epochs out — as exact counts, and that the three tiers account
// for every event the run consumed. The synchronous arrow loop never
// leaves the ring; a think time moves the timer of every request but
// each node's last past the ring: at 1000 ticks into the next epoch
// when the position sits late enough in its own, else into the heap,
// and at 2¹⁸ or 2²⁷ ticks always into the heap; the centralized
// coordinator's one serve timer, a tick ahead, leaves the ring only when
// it crosses into the next epoch; NTA under AsyncUniform(4) keeps its
// random delays in the ring.
func TestSchedPushesByTier(t *testing.T) {
	const n, perNode = 64, 10
	arrowRun := func(spec loop.Spec) (*loop.Result, error) {
		return arrow.RunClosedLoop(tree.BinaryWalker(n), arrow.LoopConfig{Spec: spec, Root: 0})
	}
	rows := []struct {
		name string
		spec loop.Spec
		run  func(loop.Spec) (*loop.Result, error)
		want [3]int64 // ring, next epoch, heap
	}{
		{"arrow", loop.Spec{}, arrowRun, [3]int64{3090, 0, 0}},
		{"arrow-think-1000", loop.Spec{ThinkTime: 1000}, arrowRun, [3]int64{4336, 64, 512}},
		{"arrow-think-2^18", loop.Spec{ThinkTime: 1 << 18}, arrowRun, [3]int64{4336, 0, 576}},
		{"arrow-think-2^27", loop.Spec{ThinkTime: 1 << 27}, arrowRun, [3]int64{4336, 0, 576}},
		{"centralized", loop.Spec{}, func(spec loop.Spec) (*loop.Result, error) {
			return centralized.RunClosedLoopTopo(sim.NewCompleteTopology(n), centralized.LoopConfig{Spec: spec})
		}, [3]int64{2536, 4, 0}},
		{"nta-async4", loop.Spec{Latency: sim.AsyncUniform(4), Seed: 1}, func(spec loop.Spec) (*loop.Result, error) {
			return nta.RunClosedLoopTopo(sim.NewCompleteTopology(n), nta.LoopConfig{Spec: spec})
		}, [3]int64{2051, 0, 0}},
	}
	for _, r := range rows {
		var ds sim.DrainStats
		spec := r.spec
		spec.PerNode, spec.DrainStats = perNode, &ds
		res, err := r.run(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := ds.Sched
		got := [3]int64{st.RingPushes, st.FarPushes, st.HeapPushes}
		t.Logf("%s: %d events, pushes ring/next-epoch/heap %v", r.name, res.Events, got)
		if got != r.want {
			t.Errorf("%s: pushes ring/next-epoch/heap %v, want %v", r.name, got, r.want)
		}
		if sum := got[0] + got[1] + got[2]; sum != res.Events {
			t.Errorf("%s: %d pushes across the tiers, %d events consumed", r.name, sum, res.Events)
		}
	}
}
