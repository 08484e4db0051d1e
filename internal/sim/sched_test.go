// Tests of the ladder queue against the eventHeap oracle: whole
// simulations replayed through a heap (TestSchedulerEquivalence), the
// cell's block-offset encoding at its edges (TestLadderBlockOffsets),
// where nextEp meets the heap (TestNextEpochMeetsFarResident), heap
// storage release, and the arena's byte pins.
//
// Mutation table — each edit to sched.go was applied in a copy of the
// tree and the package's tests run; the tests named are the ones that
// failed (FuzzLadderMatchesHeap replays its committed corpus, and
// TestLadderCorpusReachesHeldCell that corpus):
//
//	cellAt rebuilds the time from the    TestLadderBlockOffsets,
//	epoch, not the block (base&^ringMask) TestNextEpochMeetsFarResident
//	pourHeap drops the seq (no           TestLadderBlockOffsets,
//	q.seqs store)                        TestSchedulerEquivalence,
//	                                     TestNextEpochMeetsFarResident,
//	                                     both fuzz corpora and both
//	                                     corpus cover tests
//	the kind packed one bit lower,       TestLadderBlockOffsets,
//	overlapping the offset (cellTK and   FuzzLadderMatchesHeap;
//	kind shift by blockShift-1)          TestSchedulerEquivalenceWithFaults
//	                                     panics on a misread kind
//	refill pours in one order whatever   TestNextEpochMeetsFarResident,
//	the arbitration (either order)       TestSchedulerEquivalence,
//	                                     TestLadderBlockOffsets, both
//	                                     fuzz corpora
//	refill opens heap[0]'s epoch while   the same
//	nextEp holds events
//	linkNextEp appends to a non-empty    the same
//	nextEp under LIFO
//	push sends next-epoch pushes         TestLadderBlockOffsets
//	across a block boundary to nextEp
//	nextEp takes two epochs              the same, and
//	                                     TestLadderReleasesOverflowStorage
//	pourHeap pours the whole block,      the package runs out of memory
//	not the epoch
//	pourHeap never releases the heap     TestLadderReleasesOverflowStorage
//
// The order mutants of the intrusive lists — prepareRandom skipped in
// popCell, ring push appending under LIFO, pri returning +seq under
// LIFO, insertSorted's comparison reversed — each fail
// TestSchedulerEquivalence, TestLadderBlockOffsets and both fuzz
// corpora.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/tree"
)

// farStrides are the grids runTrace snaps its far-future timers to.
var farStrides = [...]Time{700, 1 << 15, 1 << 22, 1 << 28}

// runTrace drives a randomized workload that exercises every scheduler
// code path — unit and multi-tick delays, node and closure timers,
// same-tick scheduling during the current tick's drain, and far-future
// delays that reach every tier of the ladder (ring-crossing, nextEp, the
// heap within and beyond the 2²⁷-tick block) — and logs its pushes and
// deliveries for checkHeapOrder. The workload's choices come from one
// stream seeded like the simulator's own, so for a fixed config the
// trace is a pure function of the event order the scheduler realizes.
func runTrace(arb Arbitration, lat LatencyModel, seed int64) (*pushLog, SchedStats) {
	tr := tree.PathTree(4)
	s := New(Config{
		Topology:    TreeTopology{T: tr},
		Latency:     lat,
		Arbitration: arb,
		Seed:        seed,
		MaxEvents:   200000,
	})
	l := &pushLog{s: s}
	budget := 4000
	r := rand.New(rand.NewSource(seed))
	spawn := func(ctx *Context, at graph.NodeID) {
		if budget <= 0 {
			return
		}
		budget--
		switch r.Intn(5) {
		case 0:
			// Far-future node timer, snapped to one of four grids so each
			// tier is reached — ring-crossing, nextEp and the heap (700),
			// the heap (2¹⁵, 2²²), the heap beyond the block (2²⁸) — and
			// so timers armed from different positions, hence held in
			// different tiers, meet on one tick: the run takes nextEp and
			// heap pours with same-tick ties to order.
			stride := farStrides[r.Intn(len(farStrides))]
			target := (ctx.Now()/stride + 1 + Time(r.Intn(3))) * stride
			ctx.AfterNode(target-ctx.Now(), at)
			l.pushed(evNodeTimer, target, at, -1)
		case 1:
			// Same-tick closure timer: inserts into the bucket being
			// drained right now.
			to, tag := at, s.seq+1
			ctx.After(0, func(ctx *Context) {
				l.deliver(simDelivery{ctx.Now(), evTimer, to, -1, tag})
			})
			l.pushed(evTimer, ctx.Now(), at, -1)
		case 2:
			d := Time(1 + r.Intn(7))
			ctx.AfterNode(d, at)
			l.pushed(evNodeTimer, ctx.Now()+d, at, -1)
		default:
			next := at - 1
			if at == 0 {
				next = 1
			}
			ctx.Send(at, next, s.seq+1)
			l.pushed(evMessage, 0, next, at)
		}
	}
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		l.deliver(simDelivery{ctx.Now(), evMessage, at, from, msg.(uint64)})
		spawn(ctx, at)
		spawn(ctx, at)
	})
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		l.deliver(simDelivery{ctx.Now(), evNodeTimer, v, -1, 0})
		spawn(ctx, v)
	})
	for v := graph.NodeID(0); v < 4; v++ {
		s.ScheduleNodeAt(Time(v)*700, v) // staggered past the first horizon
		l.pushed(evNodeTimer, Time(v)*700, v, -1)
	}
	s.Run()
	return l, s.SchedStats()
}

// TestSchedulerEquivalence pins the tentpole invariant: the ladder queue
// realizes the exact (at, pri, seq) total order of the binary heap —
// event for event, checked against a heap replay of each run's own
// pushes — across arbitration modes, latency models and seeds.
func TestSchedulerEquivalence(t *testing.T) {
	models := []struct {
		name string
		m    LatencyModel
	}{
		{"sync", nil},
		{"async-uniform", AsyncUniform(4)},
		{"async-bimodal", AsyncBimodal(8, 0.25)},
	}
	for _, arb := range []Arbitration{ArbFIFO, ArbLIFO, ArbRandom} {
		for _, lm := range models {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%s/seed=%d", arb, lm.name, seed), func(t *testing.T) {
					l, st := runTrace(arb, lm.m, seed)
					if st.FarPushes == 0 || st.HeapPushes == 0 || st.Poured == 0 {
						t.Errorf("run missed a tier (stats %+v)", st)
					}
					checkHeapOrder(t, arb, seed, l)
				})
			}
		}
	}
}

// TestLadderBlockOffsets pins the cell's time encoding at its edges:
// events at offsets 0, 1 and 2²⁷−1 of a block and just past the block's
// end, pushed from positions in the previous block, wait in the heap
// tier and are poured into cells when the position enters their epoch.
// After the first pop of each tick every target not yet passed is pushed
// again, so residents of different tiers meet on one tick and the tick
// being drained takes same-tick pushes. Three more targets lie 300, 600
// and 2¹⁸+7 ticks past the start, in the start's own block unless it is
// the last tick; from last-super-epoch, an odd epoch of its block, the
// first is a next-epoch push. The starts are the block's first tick, 2¹⁸+3 ticks before
// its end (last-super-epoch) and its last tick. Every pop is checked
// against eventHeap — time (the position), kind and the seq the endpoint
// carries — under each arbitration, and after every batch of pushes each
// pending cell's cellAt against the time it was pushed at, from
// wherever the position stands.
func TestLadderBlockOffsets(t *testing.T) {
	const block = Time(1) << blockShift
	const b = 5 * block
	blockTargets := []Time{b, b + 1, b + block - 1, b + block, b + block + 1}
	starts := []struct {
		name string
		at   Time
	}{
		{"block-start", b - block},
		{"last-super-epoch", b - 1<<(2*ringBits) - 3},
		{"last-tick", b - 1},
	}
	for _, arb := range []Arbitration{ArbFIFO, ArbLIFO, ArbRandom} {
		for _, st := range starts {
			t.Run(fmt.Sprintf("%v/%s", arb, st.name), func(t *testing.T) {
				// Three more targets in the start's own block, in the next
				// epochs and 2¹⁸ ticks ahead: times that differ from the
				// position in bits it has set.
				targets := append([]Time{st.at + 300, st.at + 600, st.at + 1<<(2*ringBits) + 7}, blockTargets...)
				var (
					lq     ladderQueue
					h      eventHeap
					seq    uint64
					pushed = map[graph.NodeID]Time{} // push time by seq
				)
				lq.init(arb, 7)
				push := func(at Time) {
					seq++
					pushed[graph.NodeID(seq)] = at
					kind := evKind(seq % uint64(evFault+1))
					e := h.push(at, lq.pri(seq), seq)
					e.kind, e.to = kind, graph.NodeID(seq)
					lq.push(at, seq, kind, graph.NodeID(seq), 0, nil)
				}
				checkCells := func() {
					for _, l := range append([]tickBucket{lq.nextEp}, lq.ring[:]...) {
						for s := l.head; s != nilSlot; s = lq.arena[s].next {
							if got, want := lq.cellAt(s), pushed[lq.arena[s].to]; got != want {
								t.Fatalf("position %d: cell of seq %d reads time %d, pushed at %d", lq.base, lq.arena[s].to, got, want)
							}
						}
					}
				}
				pop := func() {
					c, slot := lq.popCell()
					var want event
					h.pop(&want)
					if lq.base != want.at || c.to != want.to || c.kind() != want.kind {
						t.Fatalf("ladder (at %d, seq %d, kind %d), heap (at %d, seq %d, kind %d)",
							lq.base, c.to, c.kind(), want.at, want.to, want.kind)
					}
					lq.release(slot)
				}
				push(st.at)
				pop()
				for range 3 {
					for _, at := range targets {
						push(at)
					}
				}
				checkCells()
				last := Time(-1)
				for len(h) > 0 {
					pop()
					if lq.base != last {
						last = lq.base
						for _, at := range targets {
							if at >= last {
								push(at)
							}
						}
						checkCells()
					}
				}
				if lq.size != 0 {
					t.Fatalf("ladder holds %d events after the oracle drained", lq.size)
				}
				if sst := lq.stats; sst.HeapPushes == 0 || sst.Poured == 0 {
					t.Errorf("run missed the heap or its pour (stats %+v)", sst)
				}
			})
		}
	}
}

// farBurst schedules count node timers spacing ticks apart on a fresh
// simulator and returns it un-run: with spacing 600 the first timer is a
// next-epoch push and the rest wait in the heap; spacing above 2²⁷ puts
// every timer in its own block.
func farBurst(count int, spacing Time) *Simulator {
	s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {})
	for i := 1; i <= count; i++ {
		s.ScheduleNodeAt(Time(i)*spacing, 0)
	}
	return s
}

// TestLadderReleasesOverflowStorage is the scheduler-memory pin
// (alongside engine's 100k-request recorder-memory pin): a burst of
// far-future events waits in the heap, whose backing array grows once
// and is released when a pour drains it, so the burst's peak is not
// pinned for the life of the run; the arena holds only what the ring
// and nextEp hold at once. The arena itself keeps its peak: a burst
// that fills the ring leaves it at the burst's size after the crossing
// into the next epoch.
func TestLadderReleasesOverflowStorage(t *testing.T) {
	const far = 5000
	for _, c := range []struct {
		name    string
		spacing Time
	}{
		{"epoch-spaced", 600},
		{"heap", 1<<blockShift + 600},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := farBurst(far, c.spacing)
			if st := s.SchedStats(); st.HeapPushes < far-1 || cap(s.lq.heap) < far-1 {
				t.Fatalf("test premise broken: heap holds cap %d after %d heap pushes, want %d", cap(s.lq.heap), st.HeapPushes, far-1)
			}
			s.Run()
			if s.lq.heap != nil {
				t.Errorf("drained heap tier retains cap %d, want released (nil)", cap(s.lq.heap))
			}
			if got := len(s.lq.arena); got > 64 {
				t.Errorf("arena grew to %d slots for a 1-in-flight workload; want peak-pending-sized", got)
			}
			if s.lq.size != 0 || s.lq.ringCnt != 0 || s.lq.nextEp.head != nilSlot {
				t.Errorf("queue not empty after run: size=%d ringCnt=%d nextEp=%d", s.lq.size, s.lq.ringCnt, s.lq.nextEp.head)
			}
		})
	}
	t.Run("next-epoch", func(t *testing.T) {
		// The burst fills the ring; the last timer, one epoch ahead, is
		// all that is left when the position crosses into its epoch.
		s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
		s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {})
		for i := range far {
			s.ScheduleNodeAt(Time(1+i%500), 0)
		}
		s.ScheduleNodeAt(600, 0)
		if st := s.SchedStats(); st.FarPushes != 1 || s.lq.nextEp.head == nilSlot || len(s.lq.arena) <= far {
			t.Fatalf("test premise broken: the last timer not in nextEp behind the burst (stats %+v, arena %d)", st, len(s.lq.arena))
		}
		s.Run()
		if got := len(s.lq.arena); got <= far || s.lq.heap != nil {
			t.Errorf("crossing into the last epoch left an arena of %d slots (heap allocated %v); want the burst's peak kept and no heap", got, s.lq.heap != nil)
		}
	})
}

// TestLadderOverflowBelowRetainCapKept: a small heap's backing array is
// reused, not churned, whether the burst's events wait inside the
// position's block or past it.
func TestLadderOverflowBelowRetainCapKept(t *testing.T) {
	for _, spacing := range []Time{600, 1<<blockShift + 600} {
		s := farBurst(16, spacing)
		s.Run()
		if s.lq.heap == nil || cap(s.lq.heap) > overflowRetainCap {
			t.Errorf("spacing %d: small heap array not retained: nil=%v (cap %d)", spacing, s.lq.heap == nil, cap(s.lq.heap))
		}
	}
}

func TestSatMulSatAdd(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, math.MaxInt64, 0},
		{1, math.MaxInt64, math.MaxInt64},
		{3, 4, 12},
		{math.MaxInt64 / 2, 3, math.MaxInt64},
		{int64(1) << 40, int64(1) << 30, math.MaxInt64},
	}
	for _, c := range cases {
		if got := SatMul(c.a, c.b); got != c.want {
			t.Errorf("SatMul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := SatMul(c.b, c.a); got != c.want {
			t.Errorf("SatMul(%d, %d) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
	if got := SatAdd(math.MaxInt64-10, 11); got != math.MaxInt64 {
		t.Errorf("SatAdd near max = %d, want saturation", got)
	}
	if got := SatAdd(40, 2); got != 42 {
		t.Errorf("SatAdd(40, 2) = %d", got)
	}
}

// BenchmarkSchedulerPushPop measures raw steady-state scheduler
// throughput: a pending set of the given size with uniformly random
// delays, popping one event and pushing its replacement per iteration.
// delay=16 stays within the ladder's ring (the synchronous regime); 600
// reaches into the next epoch (nextEp); 4096 and 1<<28 put most pushes
// in the heap tier, inside the 2²⁷-tick block and past it. ladder is the
// simulator's queue, heap the eventHeap alone. Run with -benchmem: the
// steady state of both is allocation-free.
func BenchmarkSchedulerPushPop(b *testing.B) {
	for _, kind := range []string{"ladder", "heap"} {
		for _, pending := range []int{64, 1024, 65536} {
			for _, maxDelay := range []int{16, 600, 4096, 1 << 28} {
				name := fmt.Sprintf("%v/pending=%d/delay=%d", kind, pending, maxDelay)
				b.Run(name, func(b *testing.B) {
					var lq ladderQueue
					lq.init(ArbFIFO, 0)
					var h eventHeap
					var seq uint64
					now := Time(0)
					rng := rand.New(rand.NewSource(1))
					push := func(d Time) {
						seq++
						if kind == "heap" {
							h.push(now+d, int64(seq), seq)
						} else {
							lq.push(now+d, seq, evMessage, 0, 0, nil)
						}
					}
					for i := 0; i < pending; i++ {
						push(1 + Time(rng.Intn(maxDelay)))
					}
					b.ReportAllocs()
					b.ResetTimer()
					var e event
					for i := 0; i < b.N; i++ {
						if kind == "heap" {
							h.pop(&e)
							now = e.at
						} else {
							_, slot := lq.popCell()
							now = lq.base
							lq.release(slot)
						}
						push(1 + Time(rng.Intn(maxDelay)))
					}
				})
			}
		}
	}
}

// TestEventCellLayout pins the layout the in-place event path is built
// around: an event is its own arena cell, list link included, and
// stores no priority, no sequence number and only its time's offset in
// the position's block — 32 bytes, two to a cache line, where pointers
// are 8 bytes, and 24 bytes where they are 4.
func TestEventCellLayout(t *testing.T) {
	want := uintptr(32)
	if unsafe.Sizeof(uintptr(0)) != 8 {
		want = 24
	}
	if got := unsafe.Sizeof(cell{}); got != want {
		t.Errorf("cell is %d bytes, want %d", got, want)
	}
}

// TestSimulatorFootprint pins what sim.New costs a small run: on a
// two-node tree it stays under 10 KiB. The smallest of three readings
// keeps a background allocation out of the count.
func TestSimulatorFootprint(t *testing.T) {
	const limit = 10 << 10
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > limit {
		t.Errorf("New on a two-node tree allocated %d bytes, want at most %d", best, limit)
	}
	t.Logf("New on a two-node tree: %d bytes", best)
}

// TestNextEpochMeetsFarResident pins the order where nextEp meets the
// heap: a tick holds residents the heap took from an earlier epoch and
// next-epoch pushes made from the epoch just before it, and the position
// crosses into that tick's epoch with both pending. In the heap case the
// residents come from epoch 0 of the same block; in the block-boundary
// case from the last epoch of the block before, and the crossing is into
// the block's second epoch. Every pop is checked against eventHeap under
// each arbitration.
func TestNextEpochMeetsFarResident(t *testing.T) {
	const block = Time(1) << blockShift
	cases := []struct {
		name string
		from Time // where the position stands when the older residents are pushed
		step Time // a tick of the epoch before tick's, where the position waits
		tick Time // the shared tick
		want scriptCover
	}{
		{"heap", 0, 700, 1400, coverMeet},
		{"block-boundary", block - 100, block + 100, block + ringSize + 5, coverMeet | coverMeetBlock},
	}
	for _, arb := range []Arbitration{ArbFIFO, ArbLIFO, ArbRandom} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", arb, c.name), func(t *testing.T) {
				var (
					lq  ladderQueue
					h   eventHeap
					seq uint64
				)
				lq.init(arb, 3)
				push := func(at Time) {
					seq++
					e := h.push(at, lq.pri(seq), seq)
					e.to = graph.NodeID(seq)
					lq.push(at, seq, evNodeTimer, graph.NodeID(seq), 0, nil)
				}
				pop := func() {
					cl, slot := lq.popCell()
					var want event
					h.pop(&want)
					if lq.base != want.at || cl.to != want.to {
						t.Fatalf("ladder pops seq %d at %d, heap seq %d at %d", cl.to, lq.base, want.to, want.at)
					}
					lq.release(slot)
				}
				push(c.from)
				pop()
				for range 3 { // the older residents
					push(c.tick)
					push(c.tick + 1)
				}
				push(c.step)
				pop() // the position moves to step
				heap, far := lq.stats.HeapPushes, lq.stats.FarPushes
				for range 3 { // the newer, one epoch ahead of step
					push(c.tick)
					push(c.tick + 1)
				}
				if got := nextEpMeetsHeap(&lq); got != c.want || heap < 6 || lq.stats.FarPushes != far+6 {
					t.Fatalf("test premise broken: meet %03b, want %03b; %d heap pushes, stats %+v", got/coverPour, c.want/coverPour, heap, lq.stats)
				}
				for len(h) > 0 {
					pop()
				}
				if lq.size != 0 || lq.nextEp.head != nilSlot {
					t.Errorf("ladder holds %d events (nextEp head %d) after the oracle drained", lq.size, lq.nextEp.head)
				}
			})
		}
	}
}

// TestReserveAllocatesOneArena pins the bytes Reserve costs: one arena
// of 32-byte cells, sized once, plus under random arbitration one
// 8-byte seq column beside it. The smallest of three readings keeps a
// background allocation out of the count.
func TestReserveAllocatesOneArena(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate slices.Grow's made slice separately")
	}
	const pending = 100_000
	for _, r := range []struct {
		arb      Arbitration
		perEvent uint64
	}{
		{ArbFIFO, 32},
		{ArbRandom, 40},
	} {
		limit := r.perEvent*pending + 8<<10
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}, Arbitration: r.arb})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Reserve(pending)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if best > limit {
			t.Errorf("%v: Reserve(%d) allocated %d bytes, want at most %d (%d bytes per event plus one 8 KiB page)",
				r.arb, pending, best, limit, r.perEvent)
		}
	}
}
