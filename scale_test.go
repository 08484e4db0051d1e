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
// stray O(n log n) table would immediately break (the lifted tree alone
// costs ~8·log₂(n) ≈ 136 bytes/node in parent tables at 100k). The
// budgets are about three times what the rows measure: arrow 76 B/node
// — the 32-byte event cell of an arena the driver reserves in one step
// (Simulator.Reserve; ramping it up through append cost 445, and
// 48-byte cells read 92), the 32-byte nodeState and 12 bytes of Walker
// and link arrays — and centralized 49 (66 with 48-byte cells). The centralized row holds ~n serve-finish timers in
// the scheduler's far tier for the whole run; they live in the arena
// reserved for the n initial timers, so a second n-entry structure for
// the far tier (the binary heap cost ~340 B/node in append growth)
// breaks its budget.
func TestScaleBytesPerNodeFlat(t *testing.T) {
	const perNode = 4
	rows := []struct {
		name   string
		budget float64
		run    func(n int) float64
	}{
		{"arrow", 220, func(n int) float64 { return arrowAllocPerNode(t, n+1, loop.Spec{PerNode: perNode}) }},
		{"centralized", 170, func(n int) float64 { return centralAllocPerNode(t, n, loop.Spec{PerNode: perNode}) }},
	}
	for _, r := range rows {
		small, big := r.run(10_000), r.run(100_000)
		t.Logf("%s bytes/node: n=10k %.1f, n=100k %.1f", r.name, small, big)
		if big > small*1.5 {
			t.Errorf("%s: bytes/node grew from %.1f (10k) to %.1f (100k): not flat", r.name, small, big)
		}
		if big > r.budget {
			t.Errorf("%s: bytes/node at 100k = %.1f exceeds the %.0f-byte budget", r.name, big, r.budget)
		}
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

// TestCentralServeQueueStaysOutOfHeap gates "the serve queue is off the
// binary heap" as a count, not a wall-clock impression: in a 20 000-node
// centralized closed loop every request arms a serve-finish timer about
// n ticks ahead, so all but the ones armed with under an epoch of queue
// in front of them (the run's first few hundred) are far-wheel pushes,
// and nothing reaches the heap tier.
func TestCentralServeQueueStaysOutOfHeap(t *testing.T) {
	const n, perNode = 20_000, 5
	var ds sim.DrainStats
	centralAllocPerNode(t, n, loop.Spec{PerNode: perNode, DrainStats: &ds})
	st := ds.Sched
	far := st.Far()
	t.Logf("scheduler counters: %+v", st)
	if st.HeapPushes != 0 {
		t.Errorf("heap_pushes = %d, want 0: the serve queue reached the binary heap", st.HeapPushes)
	}
	if requests := int64(n * perNode); far < requests-1024 {
		t.Errorf("far_pushes = %d for %d requests: the serve-finish timers are not parked in the far wheels", far, requests)
	}
	if st.Refills == 0 || st.Cascaded < far {
		t.Errorf("refills = %d, cascaded = %d: every far push must come back through a refill", st.Refills, st.Cascaded)
	}
}

// TestSchedPushesByTier pins where small closed loops' pushes land in
// the scheduler — the tick ring, far wheel 0 or 1, or the heap beyond
// 2²⁷ ticks — as exact counts, and that the three tiers account for
// every event the run consumed. The synchronous arrow loop never leaves
// the ring; a think time moves the timer of every request but each
// node's last into wheel 0 (1000 ticks), wheel 1 (2¹⁸) or the heap
// (2²⁷); the centralized coordinator parks the serve-finish timers that
// wait past the epoch in wheel 0; NTA under AsyncUniform(4) keeps its
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
		want [4]int64 // ring, wheel 0, wheel 1, heap
	}{
		{"arrow", loop.Spec{}, arrowRun, [4]int64{3090, 0, 0, 0}},
		{"arrow-think-1000", loop.Spec{ThinkTime: 1000}, arrowRun, [4]int64{4336, 576, 0, 0}},
		{"arrow-think-2^18", loop.Spec{ThinkTime: 1 << 18}, arrowRun, [4]int64{4336, 0, 576, 0}},
		{"arrow-think-2^27", loop.Spec{ThinkTime: 1 << 27}, arrowRun, [4]int64{4336, 0, 0, 576}},
		{"centralized", loop.Spec{}, func(spec loop.Spec) (*loop.Result, error) {
			return centralized.RunClosedLoopTopo(sim.NewCompleteTopology(n), centralized.LoopConfig{Spec: spec})
		}, [4]int64{2476, 64, 0, 0}},
		{"nta-async4", loop.Spec{Latency: sim.AsyncUniform(4), Seed: 1}, func(spec loop.Spec) (*loop.Result, error) {
			return nta.RunClosedLoopTopo(sim.NewCompleteTopology(n), nta.LoopConfig{Spec: spec})
		}, [4]int64{2051, 0, 0, 0}},
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
		got := [4]int64{st.RingPushes, st.FarPushes[0], st.FarPushes[1], st.HeapPushes}
		t.Logf("%s: %d events, pushes ring/wheel0/wheel1/heap %v", r.name, res.Events, got)
		if got != r.want {
			t.Errorf("%s: pushes ring/wheel0/wheel1/heap %v, want %v", r.name, got, r.want)
		}
		if sum := got[0] + got[1] + got[2] + got[3]; sum != res.Events {
			t.Errorf("%s: %d pushes across the tiers, %d events consumed", r.name, sum, res.Events)
		}
	}
}
