package sim

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/stats"
)

// This file is the lookahead-windowed conservative parallel drain. The
// latency model's MinDelay() is a conservative Chandy–Misra–Bryant
// lookahead bound L: a handler running at tick t cannot put work on
// another node before t + L, so ALL events in the window [t, t+L) are
// causally independent *inputs* — none of them can schedule cross-node
// work inside the window, and the only intra-window products are a
// node's own timers, which stay on the node's shard. That makes the
// fused window (every ladder bucket in [t, t+L)) the parallel unit,
// paying one barrier and one commit per window instead of per tick.
// What is parallel is the handlers; the insertion into the one shared
// event queue is serial (as in the conservative-PDES designs this
// follows):
//
//  1. gather: peekTime finds the next tick t; every bucket in [t, t+L)
//     is drained into one super-batch (no handler has run yet, so
//     nothing new can appear inside the window ahead of it;
//     nextTickWithin never moves the ladder past the window, so the
//     commits that land at t+L and later stay legal);
//  2. handlers: the batch is split by destination node (to % workers)
//     and each shard's handlers run concurrently — driver state is
//     keyed by node, so shards touch disjoint state — with every
//     mutating Context call buffered into the worker's op log. A node
//     timer that fires inside the window appends to the worker's
//     ordered mid-window sub-queue and executes in-shard, in exactly
//     the (at, seq) slot the serial run would give it (same-tick
//     entries sort behind the pre-window batch, whose sequence numbers
//     are all smaller, and among themselves by creation order, which
//     per shard equals serial push order); every cross-node send has
//     delay >= L and lands strictly outside the window;
//  3. commit: the coordinator replays the op logs through the same
//     send / push / RecordRequest the serial loop uses, in serial event
//     order: a window walk enumerates every executed event — the sorted
//     batch merged with the mid-window timers it discovers as it
//     replays their AfterNode ops — with the clock set to each event's
//     own tick. Because it IS the serial send path, latency draws
//     (stream-RNG ones included), FIFO clamps, LinkTxTime reservations
//     on any link-state tier and non-shardable recorders need no second
//     implementation and no case split.
//
// Sequence numbers, delays, FIFO clamps and recorder accumulation
// therefore reproduce exactly what the serial loop would have done, so
// the run is bit-identical to Workers <= 1 — histogram snapshots
// included (recorder shards merge exactly; see stats.ShardableRecorder).
// Windows containing closure timers or fault events, and windows too
// small to amortize the fan-out (the minBatch decision is per-window,
// not per-tick), fall back to a serial dispatch that interleaves the
// batch with everything it schedules mid-window in (at, pri, seq)
// order — the same serial order again.
//
// The commit is deliberately not sharded across the workers: the queue
// insertion is serial either way, so sharding can only save the
// delay/clamp arithmetic while paying one log walk per worker, a
// staging copy and a merge — measured slower and larger than this
// replay (DESIGN.md, "Lookahead-windowed drain").

// op kinds of the worker-side effect log.
const (
	opSend uint8 = iota
	opTimer
	opNodeTimer
	opRecord
)

// dynSeqUnknown marks the Context of a mid-window node timer: its
// global sequence number is reconstructed only at commit, so the
// seq-keyed Context.Draw is unavailable while it runs.
const dynSeqUnknown = ^uint64(0)

// emitOp is one buffered side effect of a handler run inside a worker.
// idx is the worker-local execution ordinal of the event that emitted
// it (0, 1, 2, … in the order the worker ran its events, mid-window
// timers included); the commit phase's window walk re-derives the same
// per-worker order, so an ordinal cursor per source log is all it
// needs to interleave the logs back into serial order.
// 64 bytes: msg carries an opTimer's TimerFunc as it does in event.
type emitOp struct {
	idx  int32
	kind uint8
	u, v graph.NodeID
	t    Time // absolute fire time (timers) or latency (records)
	h    int  // hops (records)
	msg  Message
	rec  stats.Recorder
}

// opBuffer is one worker's effect log for the current window. idx is
// the execution ordinal the worker is currently processing; Context's
// mutating methods stamp it into each op.
type opBuffer struct {
	ops []emitOp
	idx int32
}

// add appends one op of the given kind, stamped with the current
// execution ordinal, and returns it for the caller to fill in place.
//
//arrow:hotpath one call per buffered side effect
func (b *opBuffer) add(kind uint8) *emitOp {
	b.ops = append(b.ops, emitOp{idx: b.idx, kind: kind})
	return &b.ops[len(b.ops)-1]
}

func (b *opBuffer) reset() {
	// Drop reference fields so recycled capacity doesn't pin payloads.
	for i := range b.ops {
		b.ops[i] = emitOp{}
	}
	b.ops = b.ops[:0]
}

// dynEvent is one mid-window node timer: fire tick, a monotone
// creation/discovery ordinal that breaks same-tick ties (per shard it
// equals the serial push order; in the window walk, the global one),
// and the target node.
type dynEvent struct {
	at  Time
	ord int64
	v   graph.NodeID
}

// dynEvHeap is a hand-rolled min-heap of dynEvents keyed (at, ord) —
// the ordered mid-window sub-queue. Value-typed and recycled, so the
// steady state allocates nothing.
type dynEvHeap []dynEvent

func (h dynEvHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}

//arrow:hotpath one push per mid-window timer
func (h *dynEvHeap) push(e dynEvent) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

//arrow:hotpath one pop per mid-window timer
func (h *dynEvHeap) pop() dynEvent {
	a := *h
	n := len(a) - 1
	top := a[0]
	a[0] = a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}

// winState is one worker's view of the current fused window: its end
// tick (events at >= end commit normally; earlier node timers execute
// in-shard) and the ordered mid-window sub-queue with its creation
// counter.
type winState struct {
	end Time
	dyn dynEvHeap
	ord int64
}

func (ws *winState) reset(end Time) {
	ws.end = end
	ws.dyn = ws.dyn[:0]
	ws.ord = 0
}

// recShard pairs a ShardableRecorder with one worker's private shard of
// it; each worker Context keeps an insertion-ordered list so the
// post-drain absorb walk is deterministic.
type recShard struct {
	parent stats.ShardableRecorder
	shard  stats.Recorder
}

// windowWalker enumerates a fused window's executed events in global
// serial order: the pre-window batch (already sorted by (at, pri, seq))
// merged with the mid-window node timers the walk itself discovers —
// the caller reports each opNodeTimer firing inside the window via
// addDyn as it consumes the op, which is exactly when the serial run
// would have pushed it, so discovery order reproduces serial seq order
// and the (at, ord) heap replays the serial interleaving. Restricted
// to one shard, the enumeration equals that worker's execution order,
// which is why per-source ordinal cursors line each event up with its
// logged ops. The walker is reusable scratch owned by the coordinator.
type windowWalker struct {
	batch  []event
	w      int
	i      int     // batch cursor
	ordCur []int32 // next execution ordinal per source worker
	opCur  []int   // op-log cursor per source worker
	dyn    dynEvHeap
	dynOrd int64
}

func (wk *windowWalker) resetFor(w int, batch []event) {
	wk.batch = batch
	wk.w = w
	wk.i = 0
	if len(wk.ordCur) != w {
		wk.ordCur = make([]int32, w)
		wk.opCur = make([]int, w)
	} else {
		for i := 0; i < w; i++ {
			wk.ordCur[i] = 0
			wk.opCur[i] = 0
		}
	}
	wk.dyn = wk.dyn[:0]
	wk.dynOrd = 0
}

// addDyn registers a discovered mid-window node timer for enumeration.
func (wk *windowWalker) addDyn(at Time, v graph.NodeID) {
	wk.dyn.push(dynEvent{at: at, ord: wk.dynOrd, v: v})
	wk.dynOrd++
}

// next returns the next executed event's source shard and tick. Batch
// events win same-tick ties against mid-window timers because every
// mid-window seq is larger than every pre-window seq.
//
//arrow:hotpath one call per executed event during the commit
func (wk *windowWalker) next() (src int, at Time, ok bool) {
	if wk.i < len(wk.batch) {
		e := &wk.batch[wk.i]
		if len(wk.dyn) == 0 || e.at <= wk.dyn[0].at {
			wk.i++
			return int(e.to) % wk.w, e.at, true
		}
	} else if len(wk.dyn) == 0 {
		return 0, 0, false
	}
	d := wk.dyn.pop()
	return int(d.v) % wk.w, d.at, true
}

// runParallel is Run for workers > 1. New has already rejected configs
// the drain cannot reproduce bit-identically (non-FIFO arbitration, the
// heap scheduler, fault plans, an unbounded-MinDelay latency model).
func (s *Simulator) runParallel() Time {
	w := s.workers
	wctx := make([]*Context, w)
	for i := range wctx {
		wctx[i] = &Context{s: s, shard: i, buf: &opBuffer{}, win: &winState{}}
	}
	// Below this, goroutine fan-out costs more than it buys; the window
	// runs on the serial-fallback path instead. The decision is made
	// once per fused window, so scaled-latency configs get L ticks'
	// worth of events to clear the bar with.
	minBatch := 2*w + 8
	var (
		batch  []event
		shards = make([][]int32, w)
		wmax   = make([]Time, w)  // last tick each worker executed
		wdyn   = make([]int64, w) // mid-window timers each worker executed
		walk   windowWalker       // the commit's window walker, recycled across windows
	)
	for {
		t0, ok := s.lq.peekTime()
		if !ok {
			break
		}
		if t0 < s.now {
			panic("sim: time went backwards")
		}
		winEnd := t0 + s.window
		// Gather the fused window: drain every bucket in [t0, winEnd).
		// Handlers have not run, so nothing can appear inside the window
		// ahead of what is already queued, and the gathered batch is
		// ascending (at, pri, seq) — bucket lists drain in (pri, seq)
		// order and ticks are visited in order. nextTickWithin leaves
		// the ladder's base at or before the last drained tick, so the
		// commits that land at winEnd and later stay legal pushes.
		batch = batch[:0]
		// The pending count bounds the window's batch; growing to it in
		// one step avoids ramping a frontier-sized slice through append's
		// ~1.25× growth steps (which costs ~5× the peak in cumulative
		// allocation on the first, already full-sized window).
		if need := s.lq.size; cap(batch) < need {
			if c := 2 * cap(batch); need < c {
				need = c // never re-make for less than a doubling
			}
			batch = make([]event, 0, need)
		}
		serialOnly := false
		tick := t0
		for {
			// A batch must outlive the queue position, so the gather copies
			// each event out of its cell and releases the cell at once.
			c, slot := s.lq.popCell()
			if c == nil || c.at != tick {
				// Unreachable: each pop is guarded by a probe that saw an
				// event at tick.
				panic("sim: window batch popped an event off its tick")
			}
			if c.kind == evTimer || c.kind == evFault {
				serialOnly = true
			}
			batch = append(batch, *c)
			s.lq.release(slot)
			if s.lq.curBucketNonEmpty() {
				continue
			}
			nt, ok := s.lq.nextTickWithin(winEnd)
			if !ok {
				break
			}
			tick = nt
		}
		s.now = t0
		if serialOnly || len(batch) < minBatch {
			// Serial fallback: dispatch the window's events and
			// everything they schedule inside it in (at, pri, seq)
			// order. The window's ladder buckets are already popped, so
			// push diverts mid-window work into winDyn (see push) and
			// the loop merges it with the remaining batch — batch
			// events win same-tick ties because their seqs are all
			// smaller than any seq assigned during the window.
			s.winEnd = winEnd
			i := 0
			var dyn event // a mid-window event pops into this; batch events dispatch in place
			for {
				e := &dyn
				if i < len(batch) && (len(s.winDyn) == 0 || batch[i].before(&s.winDyn[0])) {
					e = &batch[i]
					i++
				} else if len(s.winDyn) > 0 {
					s.winDyn.pop(e)
				} else {
					break
				}
				if e.at < s.now {
					panic("sim: time went backwards")
				}
				s.now = e.at
				s.processed++
				if s.cfg.MaxEvents > 0 && s.processed > s.cfg.MaxEvents {
					panic(fmt.Sprintf("sim: exceeded MaxEvents=%d — protocol likely diverged", s.cfg.MaxEvents))
				}
				s.dispatch(s.ctx, e)
				e.msg = nil // release the reference
			}
			s.winEnd = 0
			continue
		}
		s.processed += int64(len(batch))
		if s.cfg.MaxEvents > 0 && s.processed > s.cfg.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d — protocol likely diverged", s.cfg.MaxEvents))
		}
		// Shard by destination node: driver state is keyed by node, so
		// two workers never touch the same state, and a fixed node→shard
		// map keeps any per-node ordering within one worker. Each shard
		// slice is ascending batch index = ascending (at, seq).
		for i := range shards {
			shards[i] = shards[i][:0]
		}
		for i := range batch {
			sh := int(batch[i].to) % w
			shards[sh] = append(shards[sh], int32(i))
		}
		par.ParallelMap(w, w, func(wi int) {
			ctx := wctx[wi]
			ctx.buf.reset()
			// Pre-size the op log in one step: a fused window buffers the
			// whole in-flight frontier, and letting append ramp a
			// multi-megabyte slice up in ~1.25× steps costs ~5× the peak
			// in cumulative allocation. Two ops per event (send + record,
			// or send + timer) is the common ceiling.
			if need := 2 * len(shards[wi]); cap(ctx.buf.ops) < need {
				if c := 2 * cap(ctx.buf.ops); need < c {
					need = c // never re-make for less than a doubling
				}
				ctx.buf.ops = make([]emitOp, 0, need)
			}
			ws := ctx.win
			ws.reset(winEnd)
			mine := shards[wi]
			maxAt := t0
			execOrd := int32(0)
			ii := 0
			// Merge the shard's batch slice with its mid-window timer
			// sub-queue: always the earliest tick next, batch first on
			// ties (its seqs are smaller). Restricted to this shard,
			// that is exactly the serial execution order.
			for {
				takeBatch := false
				if ii < len(mine) {
					if len(ws.dyn) == 0 || batch[mine[ii]].at <= ws.dyn[0].at {
						takeBatch = true
					}
				} else if len(ws.dyn) == 0 {
					break
				}
				ctx.buf.idx = execOrd
				execOrd++
				if takeBatch {
					e := &batch[mine[ii]]
					ii++
					ctx.evAt, ctx.evTo, ctx.evSeq = e.at, e.to, e.seq
					maxAt = e.at
					switch e.kind {
					case evNodeTimer:
						h := s.timerH
						if h == nil {
							panic(fmt.Sprintf("sim: node timer for node %d with no TimerHandler", e.to))
						}
						h(ctx, e.to)
					case evMessage:
						h := s.allH
						if h == nil {
							panic(fmt.Sprintf("sim: message for node %d with no handler", e.to))
						}
						h(ctx, e.to, e.from, e.msg)
					case evTimer, evFault:
						// The serialOnly probe routed every window containing
						// these to the serial dispatch above; reaching here
						// means the routing broke, not the protocol.
						panic("sim: serial-only event kind in parallel batch")
					}
				} else {
					d := ws.dyn.pop()
					ctx.evAt, ctx.evTo, ctx.evSeq = d.at, d.v, dynSeqUnknown
					maxAt = d.at
					h := s.timerH
					if h == nil {
						panic(fmt.Sprintf("sim: node timer for node %d with no TimerHandler", d.v))
					}
					h(ctx, d.v)
				}
			}
			wmax[wi] = maxAt
			wdyn[wi] = int64(execOrd) - int64(len(mine))
		})
		dynTotal := int64(0)
		for _, d := range wdyn {
			dynTotal += d
		}
		s.processed += dynTotal
		if s.cfg.MaxEvents > 0 && s.processed > s.cfg.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d — protocol likely diverged", s.cfg.MaxEvents))
		}
		s.statWindows++
		s.statWindowEvents += int64(len(batch)) + dynTotal
		// Commit: the ParallelMap join is the happens-before edge between
		// the workers' log writes and this replay's reads.
		s.replayLogs(wctx, winEnd, &walk, batch)
		// Advance the clock to the last tick the window executed, like
		// the serial loop would have.
		for _, m := range wmax {
			if m > s.now {
				s.now = m
			}
		}
	}
	// Fold each worker's recorder shards back into their parents. Worker
	// order then insertion order is deterministic, and ShardableRecorder
	// absorption is exact, so the parents end bit-identical to a serial
	// run regardless of how observations were partitioned.
	for _, ctx := range wctx {
		for _, rs := range ctx.recList {
			rs.parent.Absorb(rs.shard)
		}
		ctx.recM = nil
		ctx.recList = nil
	}
	return s.now
}

// replayLogs is the drain's commit: the coordinator replays the effect
// logs through the real send/schedule/record paths in the window
// walk's serial order, with the clock set to each event's own tick so
// delays, capacity reservations and stream-RNG draws match the serial
// run exactly. A node timer that fired inside the window already
// executed in-shard: its push is skipped but its sequence number is
// consumed, and the walker enumerates it so its own ops land in the
// right slot.
func (s *Simulator) replayLogs(wctx []*Context, winEnd Time, wk *windowWalker, batch []event) {
	wk.resetFor(s.workers, batch)
	s.replayGuard = winEnd
	for {
		src, at, ok := wk.next()
		if !ok {
			break
		}
		s.now = at
		buf := wctx[src].buf
		ord := wk.ordCur[src]
		wk.ordCur[src]++
		cur := wk.opCur[src]
		for cur < len(buf.ops) && buf.ops[cur].idx == ord {
			op := &buf.ops[cur]
			cur++
			switch op.kind {
			case opSend:
				s.send(op.u, op.v, op.msg)
			case opTimer:
				s.scheduleTimer(op.t, op.msg.(TimerFunc))
			case opNodeTimer:
				if op.t < winEnd {
					s.seq++
					wk.addDyn(op.t, op.v)
				} else {
					s.push(op.t, evNodeTimer, op.v, 0, nil)
				}
			case opRecord:
				op.rec.RecordRequest(op.t, op.h)
			}
		}
		wk.opCur[src] = cur
	}
	s.replayGuard = 0
}
