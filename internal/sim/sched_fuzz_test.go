package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// scriptCover is what one ladderScript run reached of the in-place API's
// hazards, as a bit set: a popped cell held out while the arena
// reallocated, the tiers fresh pushes landed in while a cell was out,
// the two places a cell is rebuilt rather than relinked — a pour of
// the heap tier into cells, and compact's rebuilt arena — and the
// paths that allocate a far wheel the first time an event reaches it
// (see wheelWatch).
type scriptCover uint16

const (
	coverGrewHeld scriptCover = 1 << iota
	coverRingHeld
	coverWheel0Held
	coverWheel1Held
	coverHeapHeld
	coverPour
	coverCompact
	coverFresh0  // a fresh push allocated wheel 0
	coverFresh1  // a fresh push allocated wheel 1
	coverCascade // a wheel-1 cascade allocated wheel 0
	coverPourNew // one heap pour allocated both wheels
	coverAll     = 1<<iota - 1
)

// wheelWatch attributes each far wheel's allocation to the operation
// that made it. mark snapshots the queue before a push or a pop: which
// wheels are still nil and, when the next pop must pour the heap (ring
// and wheels empty), which wheels that pour fills. pushed and popped
// then read what the operation allocated: a push can only allocate the
// wheel it lands in, and a pop allocates wheel 1 only by a pour and
// wheel 0 by a pour or, when the pour sends it nothing, by a wheel-1
// cascade.
type wheelWatch struct {
	lq           *ladderQueue
	nil0, nil1   bool
	pour0, pour1 bool
}

func (w *wheelWatch) mark() {
	lq := w.lq
	w.nil0, w.nil1 = lq.far[0].bucket == nil, lq.far[1].bucket == nil
	w.pour0, w.pour1 = false, false
	if lq.ringCnt != 0 || lq.far[0].cnt != 0 || lq.far[1].cnt != 0 || len(lq.heap) == 0 {
		return
	}
	start := lq.heap[0].ev.at &^ blockMask
	for i := range lq.heap {
		switch off := lq.heap[i].ev.at - start; {
		case off >= 1<<heapShift, off < ringSize:
		case off >= 1<<(2*ringBits):
			w.pour1 = true
		default:
			w.pour0 = true
		}
	}
}

// made reports which wheels are allocated now that were nil at mark.
func (w *wheelWatch) made() (bool, bool) {
	return w.nil0 && w.lq.far[0].bucket != nil, w.nil1 && w.lq.far[1].bucket != nil
}

func (w *wheelWatch) pushed() scriptCover {
	var c scriptCover
	made0, made1 := w.made()
	if made0 {
		c |= coverFresh0
	}
	if made1 {
		c |= coverFresh1
	}
	return c
}

func (w *wheelWatch) popped(t *testing.T) scriptCover {
	t.Helper()
	made0, made1 := w.made()
	if made1 && !w.pour1 {
		t.Fatalf("a pop allocated wheel 1 without pouring into it")
	}
	var c scriptCover
	if made0 && !w.pour0 {
		c |= coverCascade
	}
	if made0 && made1 && w.pour0 {
		c |= coverPourNew
	}
	return c
}

// ladderScript replays one byte-script against a ladderQueue — through
// push / popCell / release, the way the simulator drives it —
// and the eventHeap oracle, and fails on the first difference. arb
// picks the arbitration, start the tick the queue is positioned at
// before the script runs (any alignment relative to the epoch,
// super-epoch and 2²⁷-block boundaries) by pushing and popping one
// event there. A nonzero extra pushes a second event extra ticks past
// start before that pop: from a later block the two pour together,
// into both far wheels when they straddle a super-epoch boundary, which
// no script can do once the position has moved. Each script byte is one
// operation: the low three bits choose it, the high five are its
// argument a.
//
//	0    pop one event from both queues and compare the time (the
//	     position popCell moved to), the kind and the endpoint the push
//	     stamped with its seq — and under random arbitration the seq
//	     column, which the pour and compact rebuild. With a even the cell
//	     stays out — like the serial loop's, whose handler is running —
//	     across the pushes that follow, until the next op that is not a
//	     push releases it; with a odd it is released at once
//	1    push at the position's own tick (a same-tick push; after a pop
//	     that left the tick non-empty this lands in the bucket being
//	     drained)
//	2    push 1+a ticks ahead (ring)
//	3    push on the next multiples of 700 (ring-crossing / wheel 0)
//	4    push on the next multiples of 2¹⁵ (wheel 0 / wheel 1)
//	5    push on the next multiples of 2²² (wheel 1 / heap)
//	6    push on the next multiples of 2²⁸ (heap)
//	7    a pop that holds its cell (this code used to probe the deleted
//	     parallel drain's window gather; the committed corpus keeps its
//	     bytes, so it stays an operation)
//
// The grid pushes (3–6) take a%4 as the multiple, so timers armed from
// different positions — hence parked in different tiers — meet on one
// tick and the order across tiers is what the comparison checks. The
// heap takes each event's priority from the queue's own lq.pri(seq),
// the one function both sides order by. A held cell is re-read by slot
// when it is released: whatever the pushes in between did — recycle the
// freelist, land in any tier, reallocate the arena under it — it must
// still hold the event that was popped. After the script both queues
// drain to empty.
func ladderScript(t *testing.T, arb Arbitration, start, extra Time, script []byte) scriptCover {
	var (
		lq    ladderQueue
		h     eventHeap
		seq   uint64
		held  = nilSlot // the cell currently out, if any
		heldE cell      // what it held when popped
		cover scriptCover
	)
	lq.init(arb, int64(start))
	wheels := wheelWatch{lq: &lq}
	release := func() {
		if held == nilSlot {
			return
		}
		if got := lq.arena[held]; got != heldE {
			t.Fatalf("held cell %d changed while out: popped %+v, now %+v", held, heldE, got)
		}
		lq.release(held)
		held = nilSlot
	}
	push := func(at Time) {
		seq++
		// Every kind, so a kind that spills into the offset bits moves
		// the recovered time.
		kind := evKind(seq % uint64(evFault+1))
		e := h.push(at, lq.pri(seq), seq)
		e.kind, e.to = kind, graph.NodeID(seq)
		st, arena := lq.stats, cap(lq.arena)
		ringPush := at < lq.horizon
		wheels.mark()
		lq.push(at, seq, kind, graph.NodeID(seq), 0, nil)
		cover |= wheels.pushed()
		if held != nilSlot {
			mark := func(bit scriptCover, hit bool) {
				if hit {
					cover |= bit
				}
			}
			mark(coverGrewHeld, cap(lq.arena) != arena)
			mark(coverRingHeld, ringPush)
			mark(coverWheel0Held, lq.stats.FarPushes[0] != st.FarPushes[0])
			mark(coverWheel1Held, lq.stats.FarPushes[1] != st.FarPushes[1])
			mark(coverHeapHeld, lq.stats.HeapPushes != st.HeapPushes)
		}
	}
	pop := func(hold bool) {
		release()
		heap, arena := len(lq.heap), len(lq.arena)
		wheels.mark()
		c, slot := lq.popCell()
		cover |= wheels.popped(t)
		if len(lq.heap) < heap {
			cover |= coverPour
		}
		if len(lq.arena) < arena {
			cover |= coverCompact
		}
		if (c != nil) != (len(h) > 0) {
			t.Fatalf("ladder popCell ok=%v with %d events in the oracle", c != nil, len(h))
		} else if c == nil {
			return
		}
		var want event
		h.pop(&want)
		if lq.base != want.at || c.to != want.to || c.kind() != want.kind {
			t.Fatalf("pop %d: ladder (at %d, to %d, kind %d), heap (at %d, to %d, kind %d)",
				seq, lq.base, c.to, c.kind(), want.at, want.to, want.kind)
		}
		if arb == ArbRandom && lq.seqs[slot] != want.seq {
			t.Fatalf("pop %d: seq column holds %d for the event scheduled %d-th", seq, lq.seqs[slot], want.seq)
		}
		held, heldE = slot, *c
		if !hold {
			release()
		}
	}
	check := func() {
		if lq.size != len(h) {
			t.Fatalf("ladder size %d, oracle %d", lq.size, len(h))
		}
		if lq.horizon&ringMask != 0 || lq.base >= lq.horizon || lq.horizon-lq.base > ringSize {
			t.Fatalf("ring window [%d, %d) is not inside one aligned epoch", lq.base, lq.horizon)
		}
		if len(h) > 0 && h[0].ev.at < lq.base {
			t.Fatalf("position %d passed the pending event at %d", lq.base, h[0].ev.at)
		}
	}
	grid := func(stride Time, a byte) Time { return (lq.base/stride + 1 + Time(a%4)) * stride }

	push(start)
	if extra != 0 {
		push(start + extra)
	}
	pop(false)
	for _, b := range script {
		a := b >> 3
		switch b & 7 {
		case 0:
			pop(a&1 == 0)
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
			pop(true)
		}
		check()
	}
	for len(h) > 0 {
		pop(true)
		check()
	}
	pop(true) // both empty
	return cover
}

// FuzzLadderMatchesHeap is the queue-level differential: whatever the
// script, the ladder — ring, both far wheels, heap tier, cascades and
// pours — pops exactly what the binary heap pops. The
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
	// A pop that cascades a super-epoch into its first occupied epoch,
	// then a push onto the cascaded tick: it has to land behind the
	// cascaded resident.
	stop := []byte{op(4, 1), op(4, 2), op(7, 5), op(4, 1), op(4, 2), 0, 0, 0, 0}
	// More than overflowRetainCap residents in wheel 0, few of them in
	// the last epoch: the pour that empties the far tier rebuilds the
	// arena and must keep that epoch's same-tick order.
	burst := append(rep(400, op(3, 0), op(3, 1), op(3, 2)), rep(100, op(3, 3))...)
	// A cell held out (op 0 with a even) while 300 pushes outgrow the
	// arena several times over, then while one push lands in each tier —
	// same tick, ring, wheel 0, wheel 1, heap: the release must find the
	// popped event under its slot in the reallocated arena.
	held := append(rep(8, op(2, 0)), op(0, 0))
	held = append(held, rep(300, op(2, 3))...)
	held = append(held, op(0, 0), op(1, 0), op(2, 1), op(3, 0), op(4, 1), op(5, 1), op(6, 0), op(0, 1))
	for arb := uint8(0); arb < 3; arb++ {
		f.Add(arb, uint64(1<<27-300)<<24, rep(40, meet...))
		f.Add(arb, uint64(1<<18-5)<<24, stop)
		f.Add(arb, uint64(0), burst)
		f.Add(arb, uint64(0), held)
	}
	f.Fuzz(func(t *testing.T, arb uint8, start uint64, script []byte) {
		// Keep times well inside int64: scripts add at most 2³⁰ per byte.
		ladderScript(t, Arbitration(arb%3), Time(start>>24), Time(start&extraMask), script)
	})
}

// extraMask selects the fuzz argument start's low bits: the offset of
// ladderScript's second positioning event (zero: none). The tick itself
// is start>>24.
const extraMask = 1<<24 - 1

// TestLadderCorpusReachesHeldCell keeps the committed corpus honest
// about the in-place API: under every arbitration some entry holds a
// popped cell across an arena reallocation and lands pushes in the
// ring, both far wheels and the heap tier while a cell is out, and some
// entry pours the heap tier into cells and has compact rebuild the
// arena (seed-*-compact does both; under random arbitration both carry
// the seq column). And between them the entries allocate each far
// wheel by every path that can: a fresh push into either wheel, a
// wheel-1 cascade into wheel 0 (seed-*-cascade) and one pour into both
// (seed-*-pour).
func TestLadderCorpusReachesHeldCell(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzLadderMatchesHeap/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus (err %v)", err)
	}
	var cover [3]scriptCover
	for _, name := range files {
		args := corpusArgs(t, name, 3)
		var (
			arb   uint8
			start uint64
		)
		if _, err := fmt.Sscanf(args[0], "uint8(%d)", &arb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := fmt.Sscanf(args[1], "uint64(%d)", &start); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		script := corpusBytes(t, name, args[2])
		cover[arb%3] |= ladderScript(t, Arbitration(arb%3), Time(start>>24), Time(start&extraMask), script)
	}
	for arb, c := range cover {
		if c != coverAll {
			t.Errorf("%v: the committed corpus misses a case: reached %011b of %011b", Arbitration(arb), c, coverAll)
		}
	}
}

// corpusArgs reads one committed fuzz corpus file — "go test fuzz v1",
// then one Go literal per fuzz argument — and returns the n literals.
func corpusArgs(t *testing.T, name string, n int) []string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != n+1 {
		t.Fatalf("%s: %d lines, want a header and %d arguments", name, len(lines), n)
	}
	return lines[1:]
}

// corpusBytes decodes a corpus file's []byte("...") literal.
func corpusBytes(t *testing.T, name, lit string) []byte {
	t.Helper()
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: script literal: %v", name, err)
	}
	return []byte(s)
}
