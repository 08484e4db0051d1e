// Tests of the ladder queue against the eventHeap oracle: whole
// simulations replayed through a heap (TestSchedulerEquivalence), the
// cell's block-offset encoding at its edges (TestLadderBlockOffsets),
// far-tier storage release, and the arena's byte pins.
//
// Mutation table — each edit to sched.go was applied in a copy of the
// tree and the package's tests run; the tests named are the ones that
// failed (FuzzLadderMatchesHeap replays its committed corpus, and
// TestLadderCorpusReachesHeldCell that corpus):
//
//	cellAt rebuilds the time from the    TestLadderBlockOffsets
//	epoch, not the block (base&^ringMask)
//	compact leaves the seq column        FuzzLadderMatchesHeap
//	unpermuted (no q.seqs store)         (seed-random-compact),
//	                                     TestLadderCorpusReachesHeldCell
//	pourHeap drops the seq (no           TestLadderBlockOffsets,
//	q.seqs store)                        FuzzLadderMatchesHeap
//	the kind packed one bit lower,       TestLadderBlockOffsets,
//	overlapping the offset (cellTK and   FuzzLadderMatchesHeap,
//	kind shift by heapShift-1)           TestSchedulerEquivalence
//	openNextEpoch joins the two lists    TestNextEpochMeetsFarResident,
//	in one order whatever the            TestSchedulerEquivalence,
//	arbitration (either order)           TestLadderBlockOffsets, both
//	                                     fuzz corpora
//	openNextEpoch leaves the far         TestNextEpochMeetsFarResident,
//	bucket in its wheel                  TestSchedulerEquivalence
//	nextEpLevel always 0                 TestNextEpochMeetsFarResident,
//	                                     both corpus cover tests
//	farLink appends to a non-empty       TestNextEpochMeetsFarResident,
//	nextEp under LIFO                    TestSchedulerEquivalence, both
//	                                     fuzz corpora
//	openNextEpoch never compacts         TestLadderReleasesOverflowStorage
//
// The order mutants of the intrusive lists — LIFO prepend skipped in
// farLink, prepareRandom skipped in popCell, ring push appending under
// LIFO, pri returning +seq under LIFO, insertSorted's comparison
// reversed, popCell reading b.head before prepareRandom relinks — each
// fail TestSchedulerEquivalence.
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
// delays that reach every tier of the ladder (ring-crossing, both far
// wheels, the heap beyond 2²⁷ ticks) — and logs its pushes and
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
			// tier is reached — ring-crossing and far wheel 0 (700), wheel
			// 0 and 1 (2¹⁵), wheel 1 (2²²), the heap beyond 2²⁷ (2²⁸) —
			// and so timers armed from different positions, hence held in
			// different tiers, meet on one tick: the run takes both
			// cascades and the heap pour with same-tick ties to order.
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
					if st.FarPushes[0] == 0 || st.FarPushes[1] == 0 || st.HeapPushes == 0 || st.Cascaded == 0 {
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
// end, pushed from positions in the previous block, reach the heap tier,
// are poured into cells when the position enters their block, and the
// one at 2²⁷−1 goes on through wheel 1 and a cascade. After the first
// pop of each tick every target not yet passed is pushed again, so
// residents of different tiers meet on one tick and the tick being
// drained takes same-tick pushes. Two more targets lie 600 and 2¹⁸+7
// ticks past the start, in the start's own block unless it is the last
// tick. Every pop is checked against eventHeap — time (the position),
// kind and the seq the endpoint carries — under each arbitration, and
// after every batch of pushes each pending cell's cellAt against the
// time it was pushed at, from wherever the position stands.
func TestLadderBlockOffsets(t *testing.T) {
	const block = Time(1) << heapShift
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
				// Two more targets in the start's own block, into wheel 0
				// and wheel 1: cells whose time differs from the position
				// in bits it has set.
				targets := append([]Time{st.at + 600, st.at + 1<<(2*ringBits) + 7}, blockTargets...)
				var (
					lq     ladderQueue
					h      eventHeap
					seq    uint64
					pushed = map[graph.NodeID]Time{} // push time by seq
					nextEp [farLevels]int64          // next-epoch pushes by the wheel counted
				)
				lq.init(arb, 7)
				push := func(at Time) {
					seq++
					pushed[graph.NodeID(seq)] = at
					if at >= lq.horizon && at < lq.horizon+ringSize && (at^lq.base)>>heapShift == 0 {
						nextEp[min((at^lq.base)>>(2*ringBits), 1)]++
					}
					kind := evKind(seq % uint64(evFault+1))
					e := h.push(at, lq.pri(seq), seq)
					e.kind, e.to = kind, graph.NodeID(seq)
					lq.push(at, seq, kind, graph.NodeID(seq), 0, nil)
				}
				checkCells := func() {
					lists := append([]tickBucket{lq.nextEp}, lq.ring[:]...)
					for k := range lq.far {
						if farOccupied(t, &lq, k, nextEp[k]) > 0 {
							lists = append(lists, lq.far[k].bucket[:]...)
						}
					}
					for _, l := range lists {
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
				if sst := lq.stats; sst.HeapPushes == 0 || sst.FarPushes[1] == 0 || sst.Cascaded == 0 {
					t.Errorf("run missed the heap pour, wheel 1 or a cascade (stats %+v)", sst)
				}
			})
		}
	}
}

// farOccupied returns far wheel k's occupied-bucket count, zero for a
// wheel whose lists are not allocated yet. FarPushes[k] counts the
// pushes that landed in wheel k plus the next-epoch pushes whose
// alignment selects it, which nextEp holds instead; the caller counts
// the latter itself and passes them as nextEp. A wheel without lists
// has no occupied bucket and no push landed in it, so its counter must
// read exactly the next-epoch pushes.
func farOccupied(t *testing.T, lq *ladderQueue, k int, nextEp int64) int {
	t.Helper()
	landed := lq.stats.FarPushes[k] - nextEp
	if landed < 0 {
		t.Fatalf("wheel %d counts %d pushes, fewer than its %d next-epoch pushes", k, lq.stats.FarPushes[k], nextEp)
	}
	if lq.far[k].bucket == nil {
		if c := lq.far[k].cnt; landed != 0 || c != 0 {
			t.Fatalf("wheel %d has no lists after %d pushes into it, %d buckets occupied", k, landed, c)
		}
		return 0
	}
	return lq.far[k].cnt
}

// farBurst schedules count node timers spacing ticks apart on a fresh
// simulator and returns it un-run: spacing 600 lands the burst in the
// far wheels (wheel 0 up to 2¹⁸, wheel 1 beyond), spacing above 2²⁷
// puts every timer in its own heap block.
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
// far-future events grows the far tier's storage once — the shared
// arena for the wheels, the backing array for the heap — and draining
// it releases that storage instead of pinning the burst's peak for the
// life of the run.
func TestLadderReleasesOverflowStorage(t *testing.T) {
	const far = 5000
	t.Run("wheels", func(t *testing.T) {
		// One timer per refill: ~440 through wheel 0, the rest through
		// wheel 1 and its cascades.
		s := farBurst(far, 600)
		st := s.SchedStats()
		if st.FarPushes[0] == 0 || st.FarPushes[1] == 0 || st.HeapPushes != 0 || len(s.lq.arena) < far {
			t.Fatalf("test premise broken: burst not held by both wheels (stats %+v, arena %d)", st, len(s.lq.arena))
		}
		s.Run()
		if got := len(s.lq.arena); got > 64 {
			t.Errorf("drained far wheels leave an arena of %d slots for a 1-in-flight workload; want it rebuilt around the live events", got)
		}
		// Of the burst only the timer at 600 is a next-epoch push.
		w0, w1 := farOccupied(t, &s.lq, 0, 1), farOccupied(t, &s.lq, 1, 0)
		if s.lq.size != 0 || s.lq.ringCnt != 0 || s.lq.nextEp.head != nilSlot || w0 != 0 || w1 != 0 {
			t.Errorf("queue not empty after run: size=%d ringCnt=%d nextEp=%d wheels=%d/%d",
				s.lq.size, s.lq.ringCnt, s.lq.nextEp.head, w0, w1)
		}
	})
	t.Run("next-epoch", func(t *testing.T) {
		// The burst fills the ring; the last timer, one epoch ahead,
		// is all that is left when the position crosses into its epoch.
		s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
		s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {})
		for i := range far {
			s.ScheduleNodeAt(Time(1+i%500), 0)
		}
		s.ScheduleNodeAt(600, 0)
		if st := s.SchedStats(); st.FarPushes[0] != 1 || s.lq.nextEp.head == nilSlot || len(s.lq.arena) <= far {
			t.Fatalf("test premise broken: the last timer not in nextEp behind the burst (stats %+v, arena %d)", st, len(s.lq.arena))
		}
		s.Run()
		if got := len(s.lq.arena); got > 64 {
			t.Errorf("crossing into the last epoch leaves an arena of %d slots for one pending event; want it rebuilt", got)
		}
	})
	t.Run("heap", func(t *testing.T) {
		s := farBurst(far, 1<<heapShift+600)
		if st := s.SchedStats(); st.HeapPushes != far || cap(s.lq.heap) < far {
			t.Fatalf("test premise broken: heap holds cap %d after %d heap pushes, want %d", cap(s.lq.heap), st.HeapPushes, far)
		}
		s.Run()
		if s.lq.heap != nil {
			t.Errorf("drained heap tier retains cap %d, want released (nil)", cap(s.lq.heap))
		}
		if got := len(s.lq.arena); got > 64 {
			t.Errorf("arena grew to %d slots for a 1-in-flight workload; want peak-pending-sized", got)
		}
		if s.lq.size != 0 {
			t.Errorf("queue not empty after run: size=%d", s.lq.size)
		}
	})
}

// TestLadderOverflowBelowRetainCapKept: small far-tier storage is
// reused, not churned.
func TestLadderOverflowBelowRetainCapKept(t *testing.T) {
	s := farBurst(16, 600)
	s.Run()
	if got := len(s.lq.arena); got != 16 {
		t.Errorf("small arena not retained: %d slots after a 16-event wheel burst", got)
	}
	s = farBurst(16, 1<<heapShift+600)
	s.Run()
	if s.lq.heap == nil || cap(s.lq.heap) > overflowRetainCap {
		t.Errorf("small heap array not retained: nil=%v (cap %d)", s.lq.heap == nil, cap(s.lq.heap))
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
// delay=16 stays within the ladder's ring (the synchronous regime);
// 4096 spreads over far wheel 0, 200000 over both far wheels (the
// centralized coordinator's serve queue at 10⁵ nodes), and 1<<28 is
// the heap tier beyond 2²⁷ ticks. ladder is the simulator's queue, heap
// the eventHeap alone. Run with -benchmem: the steady state of both is
// allocation-free.
func BenchmarkSchedulerPushPop(b *testing.B) {
	for _, kind := range []string{"ladder", "heap"} {
		for _, pending := range []int{64, 1024, 65536} {
			for _, maxDelay := range []int{16, 4096, 200000, 1 << 28} {
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

// TestSimulatorFootprint pins what sim.New costs a small run: the far
// wheels' lists (4,096 bytes each) are not part of it — a run pays for
// a wheel only when a push reaches it — so New on a two-node tree stays
// under 10 KiB. The smallest of three readings keeps a background allocation
// out of the count.
func TestSimulatorFootprint(t *testing.T) {
	const limit = 10 << 10
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
		if s.lq.far[0].bucket != nil || s.lq.far[1].bucket != nil {
			t.Fatalf("New allocated a far wheel before any push")
		}
	}
	if best > limit {
		t.Errorf("New on a two-node tree allocated %d bytes, want at most %d", best, limit)
	}
	t.Logf("New on a two-node tree: %d bytes", best)
}

// TestFarWheelsAllocatedOnFirstReach pins when each far wheel comes to
// exist: never in a run confined to one epoch (wheel 0) or super-epoch
// (wheel 1); once, and for the rest of the run, when the position keeps
// crossing 2¹⁸-tick boundaries with the wheel emptying in between; and
// inside refill when the first event to reach a wheel arrives by a
// wheel-1 cascade or a heap pour rather than a fresh push.
func TestFarWheelsAllocatedOnFirstReach(t *testing.T) {
	t.Run("one-epoch", func(t *testing.T) {
		s := farBurst(3, 100)
		s.Run()
		if s.lq.far[0].bucket != nil || s.lq.far[1].bucket != nil {
			t.Errorf("a run inside one epoch allocated a far wheel (%v, %v)", s.lq.far[0].bucket != nil, s.lq.far[1].bucket != nil)
		}
	})
	t.Run("one-super-epoch", func(t *testing.T) {
		s := farBurst(16, 600) // last timer at 9 600 < 2¹⁸
		s.Run()
		if st := s.SchedStats(); s.lq.far[0].bucket == nil || st.FarPushes[0] != 16 {
			t.Fatalf("test premise broken: burst not held by wheel 0 (stats %+v)", st)
		}
		if s.lq.far[1].bucket != nil {
			t.Errorf("a run inside one super-epoch allocated wheel 1")
		}
	})
	t.Run("crossing-super-epochs", func(t *testing.T) {
		const hops, gap = 100, 300_000 // every hop crosses a 2¹⁸ boundary
		s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
		wheels := map[*[ringSize]tickBucket]bool{}
		emptied, left := 0, hops
		s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
			if w := s.lq.far[1]; w.bucket != nil {
				wheels[w.bucket] = true
				if w.cnt == 0 {
					emptied++
				}
			}
			if left--; left > 0 {
				ctx.AfterNode(gap, v)
			}
		})
		s.ScheduleNodeAt(gap, 0)
		s.Run()
		if st := s.SchedStats(); st.FarPushes[1] != hops || st.HeapPushes != 0 {
			t.Fatalf("test premise broken: hops not held by wheel 1 (stats %+v)", st)
		}
		if len(wheels) != 1 || emptied < hops-1 {
			t.Errorf("wheel 1 allocated %d times over %d hops, empty at %d of them; want once, empty at every hop", len(wheels), hops, emptied)
		}
		if !wheels[s.lq.far[1].bucket] {
			t.Errorf("wheel 1 replaced after the run")
		}
	})
	t.Run("cascade", func(t *testing.T) {
		var lq ladderQueue
		lq.init(ArbFIFO, 0)
		lq.push(300_000, 1, evNodeTimer, 0, 0, nil) // wheel 1; 37 856 ticks into its super-epoch
		if lq.far[0].bucket != nil || lq.far[1].bucket == nil {
			t.Fatalf("fresh push to wheel 1: wheels allocated %v/%v, want only wheel 1", lq.far[0].bucket != nil, lq.far[1].bucket != nil)
		}
		lq.refill()
		if lq.far[0].bucket == nil || lq.stats.FarPushes[0] != 0 || lq.ringCnt != 1 || lq.base != 300_000&^ringMask {
			t.Errorf("refill's cascade did not allocate wheel 0 on its way to the ring (wheel 0 %v, stats %+v, ring %d, base %d)",
				lq.far[0].bucket != nil, lq.stats, lq.ringCnt, lq.base)
		}
	})
	t.Run("heap-pour", func(t *testing.T) {
		const block = Time(1) << heapShift
		var lq ladderQueue
		lq.init(ArbFIFO, 0)
		lq.push(block+600, 1, evNodeTimer, 0, 0, nil)     // wheel 0 once poured
		lq.push(block+1<<18+5, 2, evNodeTimer, 0, 0, nil) // wheel 1 once poured
		if lq.far[0].bucket != nil || lq.far[1].bucket != nil || lq.stats.HeapPushes != 2 {
			t.Fatalf("heap pushes allocated a wheel (%v, %v; stats %+v)", lq.far[0].bucket != nil, lq.far[1].bucket != nil, lq.stats)
		}
		lq.refill()
		if lq.far[0].bucket == nil || lq.far[1].bucket == nil || lq.far[1].cnt != 1 || lq.base != block+512 {
			t.Errorf("refill's pour did not allocate both wheels (%v, %v; base %d)", lq.far[0].bucket != nil, lq.far[1].bucket != nil, lq.base)
		}
	})
	t.Run("next-epoch", func(t *testing.T) {
		// A closed loop whose every delay is under one epoch — think 16
		// ticks, then one hop under AsyncUniform(4) — pushes across each
		// epoch boundary it passes; nextEp holds those pushes, so no
		// wheel is allocated while FarPushes[0] counts them.
		const epochs = 60
		for _, arb := range []Arbitration{ArbFIFO, ArbLIFO, ArbRandom} {
			tr := tree.BalancedBinary(64)
			s := New(Config{Topology: TreeTopology{T: tr}, Latency: AsyncUniform(4), Arbitration: arb, Seed: 1})
			s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
				if ctx.Now() < epochs*ringSize {
					ctx.AfterNode(16, at)
				}
			})
			s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
				to := tr.Parent(v)
				if to == v {
					to = 1 // the root sends to a child
				}
				ctx.Send(v, to, nil)
			})
			for v := range 64 {
				s.ScheduleNodeAt(Time(v%16), graph.NodeID(v))
			}
			end := s.Run()
			st := s.SchedStats()
			if end < epochs*ringSize || st.FarPushes[0] == 0 || st.FarPushes[1] != 0 || st.HeapPushes != 0 {
				t.Fatalf("%v: test premise broken: run to tick %d, stats %+v", arb, end, st)
			}
			if s.lq.far[0].bucket != nil || s.lq.far[1].bucket != nil {
				t.Errorf("%v: a loop with every delay under one epoch allocated a far wheel (%v, %v) over %d next-epoch pushes",
					arb, s.lq.far[0].bucket != nil, s.lq.far[1].bucket != nil, st.FarPushes[0])
			}
		}
	})
}

// TestNextEpochMeetsFarResident pins the order where nextEp meets the
// far tier: a tick holds residents a far wheel took from an earlier
// epoch and next-epoch pushes made from the epoch just before it, and
// the position crosses into that tick's epoch with both pending. Wheel
// 0's bucket meets nextEp inside a super-epoch, wheel 1's where the
// next epoch starts one. Every pop is checked against eventHeap under
// each arbitration.
func TestNextEpochMeetsFarResident(t *testing.T) {
	cases := []struct {
		name  string
		wheel int
		step  Time // a tick of the epoch before target's, where the position waits
		tick  Time // the shared tick
	}{
		{"wheel-0", 0, 700, 1400},
		{"wheel-1", 1, 1<<(2*ringBits) - 100, 1<<(2*ringBits) + 5},
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
				push(0)
				pop()
				for range 3 { // the older residents, from epoch 0
					push(c.tick)
					push(c.tick + 1)
				}
				push(c.step)
				pop() // the position moves to step
				far := lq.stats.FarPushes[c.wheel]
				for range 3 { // the newer, one epoch ahead of step
					push(c.tick)
					push(c.tick + 1)
				}
				if lq.far[c.wheel].cnt == 0 || lq.nextEp.head == nilSlot || lq.stats.FarPushes[c.wheel] != far+6 {
					t.Fatalf("test premise broken: wheel %d holds %d buckets, nextEp head %d, stats %+v",
						c.wheel, lq.far[c.wheel].cnt, lq.nextEp.head, lq.stats)
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
