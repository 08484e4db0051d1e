package sim

import (
	"testing"
)

// ladderScript replays one byte-script against a ladderQueue and the
// eventHeap oracle and fails on the first difference. arb picks the
// arbitration, start the tick the queue is positioned at before the
// script runs (any alignment relative to the epoch, super-epoch and
// 2²⁷-block boundaries). Each script byte is one operation: the low
// three bits choose it, the high five are its argument a.
//
//	0    pop one event from both queues and compare (at, pri, seq)
//	1    push at the position's own tick (a same-tick push; after a pop
//	     that left the tick non-empty this lands in the bucket being
//	     drained)
//	2    push 1+a ticks ahead (ring)
//	3    push on the next multiples of 700 (ring-crossing / wheel 0)
//	4    push on the next multiples of 2¹⁵ (wheel 0 / wheel 1)
//	5    push on the next multiples of 2²² (wheel 1 / heap)
//	6    push on the next multiples of 2²⁸ (heap)
//	7    with the position's tick drained: nextTickWithin a window of
//	     8^(a%8) ticks, checked against the oracle's minimum — the
//	     parallel drain's gather step; otherwise a pop
//
// The grid pushes (3–6) take a%4 as the multiple, so timers armed from
// different positions — hence parked in different tiers — meet on one
// tick and the order across tiers is what the comparison checks.
// Random arbitration draws priorities from four values so (pri, seq)
// ties are common. After the script both queues drain to empty.
func ladderScript(t *testing.T, arb Arbitration, start Time, script []byte) {
	var (
		lq  ladderQueue
		h   eventHeap
		seq uint64
		rnd = uint64(start)*2862933555777941757 + 3037000493
	)
	lq.init(arb)
	push := func(at Time) {
		seq++
		e := event{at: at, seq: seq}
		switch arb {
		case ArbFIFO:
			e.pri = int64(seq)
		case ArbLIFO:
			e.pri = -int64(seq)
		case ArbRandom:
			rnd = rnd*6364136223846793005 + 1442695040888963407
			e.pri = int64(rnd >> 62)
		}
		h.push(e)
		lq.push(&e)
	}
	pop := func() {
		var got event
		if ok := lq.pop(&got); ok != (len(h) > 0) {
			t.Fatalf("ladder pop ok=%v with %d events in the oracle", ok, len(h))
		} else if !ok {
			return
		}
		if want := h.pop(); got.at != want.at || got.pri != want.pri || got.seq != want.seq {
			t.Fatalf("pop %d: ladder (at %d, pri %d, seq %d), heap (at %d, pri %d, seq %d)",
				seq, got.at, got.pri, got.seq, want.at, want.pri, want.seq)
		}
	}
	check := func() {
		if lq.size != len(h) {
			t.Fatalf("ladder size %d, oracle %d", lq.size, len(h))
		}
		if lq.horizon&ringMask != 0 || lq.base >= lq.horizon || lq.horizon-lq.base > ringSize {
			t.Fatalf("ring window [%d, %d) is not inside one aligned epoch", lq.base, lq.horizon)
		}
		if len(h) > 0 && h[0].at < lq.base {
			t.Fatalf("position %d passed the pending event at %d", lq.base, h[0].at)
		}
	}
	grid := func(stride Time, a byte) Time { return (lq.base/stride + 1 + Time(a%4)) * stride }

	push(start)
	pop()
	for _, b := range script {
		a := b >> 3
		switch b & 7 {
		case 0:
			pop()
		case 1:
			push(lq.base)
		case 2:
			push(lq.base + 1 + Time(a))
		case 3:
			push(grid(700, a))
		case 4:
			push(grid(1<<15, a))
		case 5:
			push(grid(1<<22, a))
		case 6:
			push(grid(1<<28, a))
		case 7:
			if lq.curBucketNonEmpty() || len(h) == 0 {
				pop()
				break
			}
			limit := lq.base + 1<<(3*(a%8))
			tick, ok := lq.nextTickWithin(limit)
			if want := h[0].at; ok != (want < limit) || (ok && tick != want) {
				t.Fatalf("nextTickWithin(%d) = (%d, %v), earliest pending %d", limit, tick, ok, want)
			}
			if lq.base >= limit {
				t.Fatalf("nextTickWithin(%d) moved the position to %d", limit, lq.base)
			}
		}
		check()
	}
	for len(h) > 0 {
		pop()
		check()
	}
	pop() // both empty
}

// FuzzLadderMatchesHeap is the queue-level differential: whatever the
// script, the ladder — ring, both far wheels, heap tier, cascades and
// pours, windowed refills — pops exactly what the binary heap pops. The
// seeds are the directed scripts below (one per mechanism) plus the
// random corpus under testdata/fuzz (each arbitration × four operation
// mixes, starting next to an alignment boundary); `go test` replays
// them all, `go test -fuzz FuzzLadderMatchesHeap` explores from them.
func FuzzLadderMatchesHeap(f *testing.F) {
	op := func(code, a byte) byte { return code | a<<3 }
	rep := func(n int, bs ...byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, bs...)
		}
		return out
	}
	// Every grid target armed again and again while the position walks
	// up to and across a 2²⁷ boundary: the same ticks collect residents
	// in the heap, then wheel 1, wheel 0 and the ring.
	var meet []byte
	for _, code := range []byte{3, 4, 5, 6} {
		for a := byte(0); a < 4; a++ {
			meet = append(meet, op(code, a))
		}
	}
	meet = append(meet, op(2, 0), op(1, 0), op(7, 3), 0, 0, 0, 0, 0, 0)
	// A window probe that may cascade a super-epoch but must stop in
	// front of its first occupied epoch, then a push onto the cascaded
	// tick: it has to land behind the cascaded resident.
	stop := []byte{op(4, 1), op(4, 2), op(7, 5), op(4, 1), op(4, 2), 0, 0, 0, 0}
	// More than overflowRetainCap residents in wheel 0, few of them in
	// the last epoch: the pour that empties the far tier rebuilds the
	// arena and must keep that epoch's same-tick order.
	burst := append(rep(400, op(3, 0), op(3, 1), op(3, 2)), rep(100, op(3, 3))...)
	for arb := uint8(0); arb < 3; arb++ {
		f.Add(arb, uint64(1<<27-300)<<24, rep(40, meet...))
		f.Add(arb, uint64(1<<18-5)<<24, stop)
		f.Add(arb, uint64(0), burst)
	}
	f.Fuzz(func(t *testing.T, arb uint8, start uint64, script []byte) {
		// Keep times well inside int64: scripts add at most 2³⁰ per byte.
		ladderScript(t, Arbitration(arb%3), Time(start>>24), script)
	})
}
