package sim

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

type evKind uint8

const (
	evTimer evKind = iota
	evNodeTimer
	evMessage
	// evFault marks a FaultPlan transition's tick (Run applies the
	// transition itself, see applyDue); msg is nil.
	evFault
)

// event is one pending event as a full value: the heap tier's element
// and the oracle's. msg carries the payload of every kind — a message's
// Message, an evTimer's TimerFunc (funcs are pointer-shaped: no boxing
// allocation); an evFault's is nil. The arbitration priority is
// not stored: it is a function of seq (see ladderQueue.pri).
type event struct {
	at   Time
	seq  uint64
	msg  Message
	to   graph.NodeID
	from graph.NodeID
	kind evKind
}

// cell is one pending event of the ring or nextEp, stored as its own
// arena cell: 32 bytes, so cells tile 64-byte lines two to a line and
// none straddles a line boundary. next is the intrusive list link of the
// cell's bucket or of the freelist; tk holds the event's time as its
// offset inside the position's 2²⁷-tick block (the low blockShift bits)
// with the kind in the bits above.
//
// Why the offset is exact: a push links a cell into the arena only when
// at lies in the ring's epoch or the next one and (at^base)>>blockShift
// == 0 — anything else goes to the heap — so every cell's time shares
// base's block when it is pushed. base leaves its block only in refill's
// heap branch, and only with the ring and nextEp empty, that is with no
// cell pending; pourHeap then fills cells from the epoch base has just
// entered. So at every moment every pending cell's time is
// base&^blockMask | offset (see cellAt), and a popped cell's time is
// base itself.
//
// The sequence number is not stored either. Under FIFO and LIFO the
// order invariant (see ladderQueue) makes list order the arbitration
// order, so nothing reads it; random arbitration keeps it in a column
// beside the arena (ladderQueue.seqs).
type cell struct {
	msg  Message
	to   graph.NodeID
	from graph.NodeID
	next int32
	tk   uint32
}

const (
	// blockShift sizes the block a cell's time is an offset in: 2²⁷
	// ticks, past a million-node run's makespan.
	blockShift = 27
	// blockMask selects a time's offset inside its block.
	blockMask = 1<<blockShift - 1
)

// The kind must fit in tk above the offset bits: a compile error (the
// constant overflows uint32) if evFault outgrows them.
const _ uint32 = uint32(evFault)<<blockShift | blockMask

// kind returns the cell's event kind.
func (c *cell) kind() evKind { return evKind(c.tk >> blockShift) }

// heapEntry is one heap-tier event with its arbitration priority, the
// one place a priority is kept: the heap orders by it on every sift.
type heapEntry struct {
	pri int64
	ev  event
}

// eventHeap is a hand-rolled min-heap of event values: events live inline
// in the backing array, so pushing a message costs zero heap allocations
// (container/heap would box every event through its any-typed interface).
// It pops in ascending (at, pri, seq) — seq is unique, so the order is
// total. It is the ladder queue's far tier, for events two or more
// epochs out, and the oracle the ladder queue is tested against.
type eventHeap []heapEntry

func (h eventHeap) less(i, j int) bool {
	x, y := &h[i], &h[j]
	if x.ev.at != y.ev.at {
		return x.ev.at < y.ev.at
	}
	if x.pri != y.pri {
		return x.pri < y.pri
	}
	return x.ev.seq < y.ev.seq
}

// push appends an event carrying only its key, sifts it up and returns
// its final address for the caller to fill in the rest (kind, endpoints,
// payload) — valid until the next heap operation. The append is the
// amortized backing-array grow, zero-alloc at steady state.
//
//arrow:hotpath far-tier enqueue two or more epochs out
func (h *eventHeap) push(at Time, pri int64, seq uint64) *event {
	*h = append(*h, heapEntry{pri: pri, ev: event{at: at, seq: seq}})
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
	return &a[i].ev
}

// pop moves the earliest event into out.
//
//arrow:hotpath sift-down on the value-typed heap
func (h *eventHeap) pop(out *event) {
	a := *h
	n := len(a) - 1
	*out = a[0].ev
	a[0] = a[n]
	a[n] = heapEntry{} // release the msg reference
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
}

const (
	// ringBits sizes the tick ring: one bucket per simulated tick of the
	// current 512-tick epoch — wide enough that the unit and
	// small-integer delays of the synchronous and scaled-async models
	// land in it directly.
	ringBits = 9
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
	// overflowRetainCap bounds what a drained heap leaves pinned: when a
	// pour empties it, a backing array larger than this is released, so
	// a far-future burst (a static set's release times) does not pin its
	// peak for the rest of the run.
	overflowRetainCap = 1024
)

// nilSlot terminates bucket lists and the freelist.
const nilSlot = int32(-1)

// sortKey is one event of a bucket being sorted for random arbitration:
// its order key and its arena slot.
type sortKey struct {
	pri  int64
	seq  uint64
	slot int32
}

// cmpKey orders sort keys by (pri, seq). A top-level function rather
// than a closure so sorting a bucket allocates nothing.
func cmpKey(x, y sortKey) int {
	if c := cmp.Compare(x.pri, y.pri); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

// tickBucket is an intrusive singly-linked list of arena slots: one
// tick's pending events in the ring, the next epoch's in nextEp.
type tickBucket struct {
	head, tail int32
}

// SchedStats counts the ladder queue's pushes by tier and its refills.
// RingPushes is fresh pushes that landed directly in the tick ring,
// FarPushes those into the epoch right after the position's (held in
// nextEp), HeapPushes those two or more epochs ahead or outside the
// position's 2²⁷-tick block; the three sum to the run's pushes. Refills
// is the epochs refill opened and Poured the events those refills moved
// into the ring, from nextEp and from the heap. Every counter the queue
// keeps sits on a branch the ring path never takes: RingPushes is
// derived by (*Simulator).SchedStats from the run's push count.
// Deterministic for a fixed config.
type SchedStats struct {
	RingPushes int64
	FarPushes  int64
	HeapPushes int64
	Refills    int64
	Poured     int64
}

// ladderQueue is the simulator's event queue in three tiers: a ring of
// per-tick bucket lists for the current 512-tick epoch and one list
// (nextEp) for the epoch right after it, both over one shared event
// arena, and the binary heap (eventHeap) for every event further out.
//
// The position is base, the tick being drained; horizon is the end of
// its epoch. A fresh push with at < horizon links into its tick's ring
// bucket, one into [horizon, horizon+512) inside base's 2²⁷-tick block
// into nextEp, and any other goes to the heap.
//
// Invariants:
//   - base only moves forward, stays inside [horizon-ringSize, horizon)
//     and never passes a pending event; every ring event lies in
//     [base, horizon), so the nearest occupied ring slot (found via the
//     occupancy bitmap) is the earliest pending tick; every nextEp
//     event lies in [horizon, horizon+ringSize) and in base's block;
//     every heap event lies at or after horizon;
//   - base leaves its epoch only in refill, with the ring empty. refill
//     opens horizon's epoch when nextEp holds events, otherwise the
//     epoch of the heap's earliest event, and pours into the ring that
//     epoch's heap events and all of nextEp, so one refill leaves the
//     ring non-empty;
//   - order: for any one tick, the tier a push lands in depends only on
//     the position, and the position only moves forward — so every heap
//     resident of that tick was pushed before every nextEp resident,
//     before every direct ring push. A ring bucket receives the pour
//     when the position enters its epoch, while it is still empty, and
//     fresh pushes only afterwards. The heap emits ascending (pri, seq);
//     fresh pushes take the arbitration's placement in both lists —
//     FIFO appends (pri equals seq, newest last), LIFO prepends (newest
//     has the smallest pri). refill pours the heap's events before
//     nextEp's, or under LIFO nextEp's (the newer) first. By induction
//     each tick's list is in (pri, seq) order under FIFO and LIFO, which
//     is the order the heap realizes. Random arbitration appends
//     everywhere and sorts a tick's list once when the tick becomes
//     current, plus ordered insertion for same-tick pushes during its
//     drain.
//
// Push and pop are O(1) in the ring and nextEp, O(log heap) beyond.
// Arena cells recycle through a freelist, so the steady state allocates
// nothing; the arena keeps its peak for the rest of the run, while the
// heap's backing array is released when a pour drains it (see
// overflowRetainCap). A cell stores its time only as an offset in the
// position's 2²⁷-tick block and no sequence number (see cell).
type ladderQueue struct {
	arb Arbitration
	// arbSeed keys random arbitration: an event's priority hashes its
	// sequence number under this seed (see pri).
	arbSeed int64
	base    Time // tick currently being drained; no pending event is earlier
	horizon Time // end of base's epoch: the ring covers [base, horizon)
	size    int  // total pending events (ring + nextEp + heap)
	ringCnt int  // occupied ring buckets
	// curPrepared marks the current bucket's list as sorted for random
	// arbitration (set when its drain starts, cleared when base moves).
	curPrepared bool

	// arena is the only place a ring or nextEp event ever lives: push
	// (or a heap pour) builds it in a cell, the serial loop dispatches it
	// from there, release recycles the cell. Lists cost no storage of
	// their own: pushing links a recycled cell into a list, a refill
	// relinks nextEp's cells into the ring, and the arena grows
	// (amortized, like the heap's backing array) only when the pending
	// count reaches a new peak.
	arena []cell
	// seqs is the sequence-number column beside the arena, one entry per
	// slot, kept only under random arbitration (nil otherwise): the one
	// mode whose order is not list order, so the sort and insertSorted
	// read it.
	seqs     []uint64
	free     int32 // freelist head through cell.next
	occupied [ringSize / 64]uint64
	ring     [ringSize]tickBucket
	nextEp   tickBucket // fresh pushes into [horizon, horizon+ringSize)
	heap     eventHeap
	scratch  []sortKey // random-arbitration sort buffer, recycled
	stats    SchedStats
}

func (q *ladderQueue) init(arb Arbitration, arbSeed int64) {
	q.arb, q.arbSeed = arb, arbSeed
	q.horizon = ringSize
	q.free = nilSlot
	q.nextEp = tickBucket{head: nilSlot, tail: nilSlot}
	for i := range q.ring {
		q.ring[i] = tickBucket{head: nilSlot, tail: nilSlot}
	}
}

// pri is the arbitration priority of the event scheduled seq-th: events
// of one tick pop in ascending (pri, seq). FIFO is seq, LIFO −seq, and
// random a hash of seq under arbSeed, derived apart from the config seed
// the latency model hashes under, so enabling random arbitration does
// not perturb delays and vice versa. It is a pure function of seq, so no
// cell stores it; it is computed only where an order is decided — the
// random-arbitration sort, insertSorted and the heap tier.
func (q *ladderQueue) pri(seq uint64) int64 {
	switch q.arb {
	case ArbLIFO:
		return -int64(seq)
	case ArbRandom:
		return DeriveSeed(q.arbSeed, int(seq))
	case ArbFIFO:
	}
	return int64(seq)
}

// alloc returns a free arena slot, growing the arena — and under
// random arbitration the seq column with it — at a new pending peak.
//
//arrow:hotpath one slot per enqueue; the arena append grows only at a new pending peak
func (q *ladderQueue) alloc() int32 {
	if s := q.free; s != nilSlot {
		q.free = q.arena[s].next
		return s
	}
	q.arena = append(q.arena, cell{})
	if q.arb == ArbRandom {
		q.seqs = append(q.seqs, 0)
	}
	return int32(len(q.arena) - 1)
}

// cellTK packs a cell's tk: the offset of at in its 2²⁷-tick block,
// which must be the position's (see cell), and the kind above it.
func cellTK(at Time, kind evKind) uint32 {
	return uint32(at&blockMask) | uint32(kind)<<blockShift
}

// cellAt returns the time of the pending event in slot s: its offset in
// the position's 2²⁷-tick block, which every pending cell shares (see
// cell).
func (q *ladderQueue) cellAt(s int32) Time {
	return q.base&^blockMask | Time(q.arena[s].tk&blockMask)
}

// push enqueues a fresh event scheduled seq-th: it fills its heap entry
// when at lies two or more epochs ahead or beyond the position's
// 2²⁷-tick block, else its cell (and under random arbitration its seq),
// and links the cell into its tick's ring bucket or, past the epoch,
// into nextEp, with the arbitration's placement. The event is built
// where it will be dispatched from, never copied in. The fill is written
// out field by field, here: a composite literal of the five-field cell
// goes through a stack temporary, and a helper would exceed the
// inlining budget and cost a call on every push.
//
//arrow:hotpath O(1) enqueue: tick bucket, or nextEp past the epoch
func (q *ladderQueue) push(at Time, seq uint64, kind evKind, to, from graph.NodeID, msg Message) {
	if at < q.base {
		panic("sim: scheduling into the past")
	}
	q.size++
	if at >= q.horizon && (at-q.horizon >= ringSize || (at^q.base)>>blockShift != 0) {
		q.stats.HeapPushes++
		e := q.heap.push(at, q.pri(seq), seq)
		e.kind, e.to, e.from, e.msg = kind, to, from, msg
		return
	}
	s := q.alloc()
	c := &q.arena[s]
	c.msg, c.to, c.from, c.next, c.tk = msg, to, from, nilSlot, cellTK(at, kind)
	if q.arb == ArbRandom {
		q.seqs[s] = seq
	}
	if at >= q.horizon {
		q.linkNextEp(s)
		return
	}
	idx := int(at) & ringMask
	b := &q.ring[idx]
	if b.head == nilSlot {
		q.occupied[idx>>6] |= 1 << (idx & 63)
		q.ringCnt++
		b.head, b.tail = s, s
		return
	}
	switch q.arb {
	case ArbLIFO:
		// A fresh push has the largest seq, hence the smallest pri:
		// it pops before everything already listed.
		c.next = b.head
		b.head = s
		return
	case ArbRandom:
		if q.curPrepared && at == q.base {
			q.insertSorted(b, s)
			return
		}
	case ArbFIFO:
		// Largest seq pops last: the tail append below is already
		// FIFO placement.
	}
	q.arena[b.tail].next = s
	b.tail = s
}

// linkNextEp links the freshly filled slot s, due in the epoch after
// the position's, into nextEp with the arbitration's placement, exactly
// as in the ring (see the order invariant).
//
//arrow:hotpath O(1) next-epoch enqueue: one list link
func (q *ladderQueue) linkNextEp(s int32) {
	q.stats.FarPushes++
	if q.arb == ArbLIFO && q.nextEp.head != nilSlot {
		q.arena[s].next = q.nextEp.head
		q.nextEp.head = s
		return
	}
	q.appendSlot(&q.nextEp, s)
}

// appendSlot links slot s at the tail of b.
func (q *ladderQueue) appendSlot(b *tickBucket, s int32) {
	q.arena[s].next = nilSlot
	if b.head == nilSlot {
		b.head = s
	} else {
		q.arena[b.tail].next = s
	}
	b.tail = s
}

// place appends the already-filled slot s, due in the ring's epoch, to
// its tick's bucket: the pour half of the order invariant.
//
//arrow:hotpath relink into the ring: no event copy
func (q *ladderQueue) place(s int32) {
	idx := int(q.cellAt(s)) & ringMask
	b := &q.ring[idx]
	if b.head == nilSlot {
		q.occupied[idx>>6] |= 1 << (idx & 63)
		q.ringCnt++
	}
	q.appendSlot(b, s)
}

// insertSorted places slot s into the sorted remainder of the current
// bucket. Only same-tick scheduling during the tick's own drain under
// random arbitration lands here, so the list walk is off the hot path.
func (q *ladderQueue) insertSorted(b *tickBucket, s int32) {
	k := sortKey{pri: q.pri(q.seqs[s]), seq: q.seqs[s]}
	if q.keyBefore(k, b.head) {
		q.arena[s].next = b.head
		b.head = s
		return
	}
	p := b.head
	for {
		n := q.arena[p].next
		if n == nilSlot || q.keyBefore(k, n) {
			break
		}
		p = n
	}
	q.arena[s].next = q.arena[p].next
	q.arena[p].next = s
	if q.arena[s].next == nilSlot {
		b.tail = s
	}
}

// keyBefore reports whether key k pops before the event in slot s.
func (q *ladderQueue) keyBefore(k sortKey, s int32) bool {
	seq := q.seqs[s]
	return cmpKey(k, sortKey{pri: q.pri(seq), seq: seq}) < 0
}

// prepareRandom sorts the current bucket's list by (pri, seq):
// random-arbitration priorities arrive in push order, not sorted order.
// It sorts the list's keys in a recycled scratch buffer with an
// allocation-free comparator and relinks the cells in that order; the
// events stay where they are, so the bucket's head changes.
func (q *ladderQueue) prepareRandom(b *tickBucket) {
	keys := q.scratch[:0]
	for s := b.head; s != nilSlot; s = q.arena[s].next {
		seq := q.seqs[s]
		keys = append(keys, sortKey{pri: q.pri(seq), seq: seq, slot: s})
	}
	slices.SortFunc(keys, cmpKey)
	for i := 1; i < len(keys); i++ {
		q.arena[keys[i-1].slot].next = keys[i].slot
	}
	b.head, b.tail = keys[0].slot, keys[len(keys)-1].slot
	q.arena[b.tail].next = nilSlot
	q.scratch = keys
}

// popCell unlinks the earliest pending event's cell and returns it with
// its slot, or (nil, nilSlot) when nothing is pending. The event's time
// is the position, base, which popCell has moved to it. The event is
// dispatched from the cell — no copy out — and the slot stays out of
// the freelist until the caller hands it back with release. A handler
// may grow the arena while the cell is out, so the pointer is good only
// until the handler is entered; release goes by slot for that reason.
// refill runs only from inside a pop, never while a cell is out.
//
//arrow:hotpath O(1) dequeue
func (q *ladderQueue) popCell() (*cell, int32) {
	if q.size == 0 {
		return nil, nilSlot
	}
	for {
		idx := int(q.base) & ringMask
		b := &q.ring[idx]
		if b.head != nilSlot {
			if q.arb == ArbRandom && !q.curPrepared {
				q.prepareRandom(b) // relinks: read the head after it
				q.curPrepared = true
			}
			s := b.head
			c := &q.arena[s]
			b.head = c.next
			if b.head == nilSlot {
				b.tail = nilSlot
				q.occupied[idx>>6] &^= 1 << (idx & 63)
				q.ringCnt--
				q.curPrepared = false
			}
			q.size--
			return c, s
		}
		q.curPrepared = false
		if q.ringCnt > 0 {
			q.base += Time(nextOccupiedDelta(&q.occupied, idx))
			continue
		}
		q.refill()
	}
}

// release returns a popped cell to the freelist. Only the reference
// field is cleared; the scalar fields are dead weight the GC does not
// scan.
//
//arrow:hotpath one call per dequeue, after the handler returned
func (q *ladderQueue) release(s int32) {
	c := &q.arena[s]
	c.msg = nil
	c.next = q.free
	q.free = s
}

// nextOccupiedDelta returns the tick gap from ring slot idx to the next
// pending tick, the next set bit of the occupancy bitmap. Every ring
// event lies in [base, horizon), so that bit lies above idx; callers
// guarantee one exists and that slot idx itself is empty, so the scan
// terminates before running off the bitmap's end.
func nextOccupiedDelta(occupied *[ringSize / 64]uint64, idx int) int {
	for d := 1; ; d += 64 - ((idx + d) & 63) {
		i := (idx + d) & ringMask
		if w := occupied[i>>6] >> (i & 63); w != 0 {
			return d + bits.TrailingZeros64(w)
		}
	}
}

// refill moves the position into the next epoch that holds events —
// horizon's while nextEp holds events, otherwise the heap's earliest
// event's — and pours into the empty ring that epoch's heap events and
// nextEp's, in the order the order invariant needs: the heap's first,
// or under LIFO nextEp's first. Called only with the ring empty and
// events pending.
//
//arrow:hotpath epoch crossing: one relink or heap pop per event moved
func (q *ladderQueue) refill() {
	start := q.horizon
	if q.nextEp.head == nilSlot {
		start = q.heap[0].ev.at &^ ringMask
	}
	q.curPrepared = false
	q.base, q.horizon = start, start+ringSize
	q.stats.Refills++
	head := q.nextEp.head
	q.nextEp = tickBucket{head: nilSlot, tail: nilSlot}
	if q.arb == ArbLIFO {
		q.pour(head)
		q.pourHeap()
		return
	}
	q.pourHeap()
	q.pour(head)
}

// pour moves the list at head into the ring, in list order.
//
//arrow:hotpath one relink per event moved
func (q *ladderQueue) pour(head int32) {
	for s := head; s != nilSlot; {
		next := q.arena[s].next
		q.place(s)
		q.stats.Poured++
		s = next
	}
}

// pourHeap moves every heap event of the ring's epoch into the arena,
// converting each into a cell (and its seq into the column under random
// arbitration). The heap emits each tick's events in ascending (pri,
// seq), so appending them is their order among themselves. A completely
// drained heap releases its oversized backing array.
//
//arrow:hotpath heap pour: one sift-down and one link per event
func (q *ladderQueue) pourHeap() {
	var e event
	for len(q.heap) > 0 && q.heap[0].ev.at < q.horizon {
		q.heap.pop(&e)
		s := q.alloc()
		c := &q.arena[s]
		c.msg, c.to, c.from, c.tk = e.msg, e.to, e.from, cellTK(e.at, e.kind)
		if q.arb == ArbRandom {
			q.seqs[s] = e.seq
		}
		q.place(s)
		q.stats.Poured++
	}
	if len(q.heap) == 0 && cap(q.heap) > overflowRetainCap {
		q.heap = nil
	}
}
