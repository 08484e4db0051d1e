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
		if s.lq.size != 0 || s.lq.ringCnt != 0 || s.lq.far[0].cnt != 0 || s.lq.far[1].cnt != 0 {
			t.Errorf("queue not empty after run: size=%d ringCnt=%d wheels=%d/%d",
				s.lq.size, s.lq.ringCnt, s.lq.far[0].cnt, s.lq.far[1].cnt)
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
							lq.push(now+d, seq)
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
							c, slot := lq.popCell()
							now = c.at
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
// stores no priority — 48 bytes.
func TestEventCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("event is %d bytes, want 48", got)
	}
}

// TestReserveAllocatesOneArena pins the bytes Reserve costs: one arena
// of 48-byte cells, sized once. The smallest of three readings keeps a
// background allocation out of the count.
func TestReserveAllocatesOneArena(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate slices.Grow's made slice separately")
	}
	const pending = 100_000
	const limit = 48*pending + 8<<10
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		s := New(Config{Topology: TreeTopology{T: tree.PathTree(2)}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Reserve(pending)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > limit {
		t.Errorf("Reserve(%d) allocated %d bytes, want at most %d (48-byte cells plus one 8 KiB page)", pending, best, limit)
	}
}
