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

// cell is one pending event short of the heap tier, stored as its own
// arena cell: 32 bytes, so cells tile 64-byte lines two to a line and
// none straddles a line boundary. next is the intrusive list link of the cell's bucket or of the
// freelist; tk holds the event's time as its offset inside the
// position's 2²⁷-tick block (the low heapShift bits) with the kind in
// the bits above.
//
// Why the offset is exact: a push links a cell into the arena only when
// (at^base)>>heapShift == 0 — anything else goes to the heap — so every
// cell's time shares base's block when it is pushed. base leaves its
// block only in refill's heap branch, and only with the ring, nextEp
// and both wheels empty, that is with no cell pending; pourHeap then
// fills cells from the heap block base has just entered. So at every moment every
// pending cell's time is base&^blockMask | offset (see cellAt), and a
// popped cell's time is base itself.
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

// blockMask selects a time's offset inside its 2²⁷-tick block.
const blockMask = 1<<heapShift - 1

// The kind must fit in tk above the offset bits: a compile error (the
// constant overflows uint32) if evFault outgrows them.
const _ uint32 = uint32(evFault)<<heapShift | blockMask

// kind returns the cell's event kind.
func (c *cell) kind() evKind { return evKind(c.tk >> heapShift) }

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
// total. It is the ladder queue's last tier, for events more than 2²⁷
// ticks out, and the oracle the ladder queue is tested against.
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
//arrow:hotpath heap-tier enqueue beyond 2²⁷ ticks
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
	// ringBits sizes every level of the ladder: the tick ring and each far
	// wheel have ringSize buckets, so one 512-bit occupancy bitmap and one
	// scan routine serve all of them. The ring holds one bucket per
	// simulated tick of the current 512-tick epoch — wide enough that the
	// unit and small-integer delays of the synchronous and scaled-async
	// models land in it directly; longer delays (think times, release
	// times of a static request set) go to the far wheels.
	ringBits = 9
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
	// farLevels is the number of far wheels. A bucket of wheel k spans
	// 1<<(ringBits*(k+1)) ticks — an epoch (512 ticks) for wheel 0, a
	// super-epoch (2¹⁸ ticks) for wheel 1 — and an event belongs to wheel
	// k when its time and the queue position agree on every bit from
	// ringBits*(k+2) up. Two wheels reach 2²⁷ ticks, past a
	// million-node run's makespan, so delays of that order stay off the
	// heap.
	farLevels = 2
	// heapShift is the alignment beyond which an event falls through to
	// the binary heap: times that differ from the position at bit 27 or
	// above.
	heapShift = ringBits * (farLevels + 1)
	// overflowRetainCap bounds what a drained far tier leaves pinned:
	// when a pour empties the heap, a backing array larger than this is
	// released, and when a pour empties the wheels, an arena larger than
	// this and more than four times the live event count is rebuilt
	// around the live events. A far-future burst (a static set's release
	// times) therefore does not pin its peak for the rest of the run;
	// the closed loops, whose pending count is steady, never trip either
	// release.
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
// tick's pending events in the ring, the next epoch's in nextEp, one
// epoch's or super-epoch's in a far wheel.
type tickBucket struct {
	head, tail int32
}

// farWheel is one level of the far tier: ringSize bucket lists indexed
// by the time bits just above the level below, with the same occupancy
// bitmap the ring keeps. The lists are allocated the first time a push
// more than one epoch ahead, a cascade or a heap pour reaches the level
// (see farBucket) and kept for the rest of the run; until then bucket
// is nil and cnt 0, so refill reads the level as empty. Only the lists
// are deferred: at 4,096 bytes they fill a Go size class exactly, where
// the whole wheel (4,168 bytes) would round up to 4,864.
type farWheel struct {
	occupied [ringSize / 64]uint64
	cnt      int                   // occupied buckets
	bucket   *[ringSize]tickBucket // nil until a push reaches the level
}

// SchedStats counts the ladder queue's pushes by tier and its far-tier
// work. RingPushes is fresh pushes that landed directly in the tick
// ring, FarPushes[k] those past the position's epoch whose alignment
// selects far wheel k, HeapPushes those that fell through to the binary
// heap (more than 2²⁷ ticks from the position); the three sum to the
// run's pushes. A far push into the epoch right after the position's
// is held in the queue's next-epoch list rather than the wheel, and
// counts against wheel 1 when that epoch starts a super-epoch, else
// against wheel 0 — so FarPushes[k] > 0 does not mean wheel k was
// allocated. Refills is the far buckets opened (one per epoch poured,
// super-epoch cascaded or heap block poured) and Cascaded the events
// those refills moved one tier down, next-epoch events included. Every counter the queue keeps sits on a branch the ring path
// never takes: RingPushes is derived by (*Simulator).SchedStats from the
// run's push count. Deterministic for a fixed config.
type SchedStats struct {
	RingPushes int64
	FarPushes  [farLevels]int64
	HeapPushes int64
	Refills    int64
	Cascaded   int64
}

// Far returns the far-wheel pushes summed over the wheels.
func (st SchedStats) Far() int64 {
	var n int64
	for _, k := range st.FarPushes {
		n += k
	}
	return n
}

// ladderQueue is the simulator's event queue, a hierarchical timing wheel
// over one shared event arena: a ring of per-tick bucket lists for the
// current 512-tick epoch, one list (nextEp) for the epoch right after
// it, far wheel 0 with one list per later epoch of the current
// super-epoch (2¹⁸ ticks), far wheel 1 with one list per later
// super-epoch of the current 2²⁷-tick block, and a binary heap for
// anything beyond the block.
//
// The position is base, the tick being drained; horizon is the end of
// its epoch. A fresh push compares its time with the position from the
// top bit down — (at^base)>>27, then at < horizon, at < horizon+512,
// (at^base)>>18 — and links into the first tier whose alignment it
// shares. Transfers (see refill) skip nextEp: it takes fresh pushes
// only. Because every level is aligned, bucket index
// (at>>shift)&ringMask never wraps within a level and the bucket
// holding the position is always empty in each far wheel: its events
// belong one tier down.
//
// Invariants:
//   - base only moves forward, stays inside [horizon-ringSize, horizon)
//     and never passes a pending event; every ring event lies in
//     [base, horizon), so the nearest occupied ring slot (found via the
//     occupancy bitmap) is the earliest pending tick; every nextEp
//     event lies in [horizon, horizon+ringSize) and in base's block;
//   - base leaves its epoch only in refill, with the ring empty. While
//     nextEp holds events refill opens the next epoch: it pours the far
//     bucket for that epoch and nextEp into the ring. Otherwise it
//     opens the next occupied bucket of the lowest non-empty tier —
//     repositioning the ring at that bucket's first tick — and moves its
//     events one tier down: an epoch pours into tick buckets, a
//     super-epoch cascades into wheel 0 (its first epoch into the ring),
//     a heap block pours into both wheels and the ring. It repeats until
//     the ring holds an event, so a descent is a sequence of legal
//     positions, never a half-cascaded bucket;
//   - order: for any one tick, the tier a push lands in depends only on
//     the position, and the position only moves forward — so every heap
//     resident of that tick was pushed before every wheel-1 resident,
//     before every wheel-0 resident, before every nextEp resident, before
//     every direct ring push. A list receives transfers from the tier
//     above only at the moment the position enters the bucket above it,
//     when the list is still empty, and fresh pushes only afterwards.
//     Transfers append in source order (the heap emits ascending (pri,
//     seq)); fresh pushes take the arbitration's placement at every tier
//     — FIFO appends (pri equals seq, newest last), LIFO prepends
//     (newest has the smallest pri). The next epoch's far bucket and
//     nextEp pour into the ring together, older list first under FIFO,
//     newer first under LIFO. By induction each list's events of one
//     tick are in (pri, seq) order under FIFO and LIFO, which is the
//     order the heap realizes. Random arbitration appends everywhere and
//     sorts a tick's list once when the tick becomes current, plus
//     ordered insertion for same-tick pushes during its drain.
//
// Push and pop are O(1) at every wheel tier — an event more than 512
// ticks out is relinked at most twice on its way to the ring, never
// copied — and O(log heap) only beyond 2²⁷ ticks. Arena cells recycle
// through a freelist, so the steady state allocates nothing. A cell
// stores its time only as an offset in the position's 2²⁷-tick block
// and no sequence number (see cell). A far wheel's lists exist once a
// push has reached the wheel — a fresh push more than one epoch ahead,
// a cascade or a heap pour (farBucket allocates them) — and stay for
// the rest of the run: a run whose delays all stay under one epoch
// never pays for a wheel, and one confined to a super-epoch never for
// wheel 1.
type ladderQueue struct {
	arb Arbitration
	// arbSeed keys random arbitration: an event's priority hashes its
	// sequence number under this seed (see pri).
	arbSeed int64
	base    Time // tick currently being drained; no pending event is earlier
	horizon Time // end of base's epoch: the ring covers [base, horizon)
	size    int  // total pending events (ring + wheels + heap)
	ringCnt int  // occupied ring buckets
	// curPrepared marks the current bucket's list as sorted for random
	// arbitration (set when its drain starts, cleared when base moves).
	curPrepared bool

	// arena is the only place an event short of the heap tier ever
	// lives: push builds it in a cell, the serial loop dispatches it from
	// there, release recycles the cell. Buckets — tick buckets and
	// far-wheel buckets alike — cost no storage of their own: pushing
	// links a recycled cell into a list, moving an event one tier down
	// relinks the same cell, and the arena grows (amortized, like the
	// heap's backing array) only when the pending count reaches a new
	// peak.
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
	far      [farLevels]farWheel
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
	return uint32(at&blockMask) | uint32(kind)<<heapShift
}

// cellAt returns the time of the pending event in slot s: its offset in
// the position's 2²⁷-tick block, which every pending cell shares (see
// cell).
func (q *ladderQueue) cellAt(s int32) Time {
	return q.base&^blockMask | Time(q.arena[s].tk&blockMask)
}

// push enqueues a fresh event scheduled seq-th: it fills its heap entry
// when at lies beyond the position's 2²⁷-tick block, else its cell
// (and under random arbitration its seq), and links the cell into the
// tier at selects — its tick's ring bucket, or past the epoch nextEp or
// a far wheel — with the arbitration's placement. The event is built
// where it will be dispatched from, never copied in. The fill is written
// out field by field, here: a composite literal of the five-field cell
// goes through a stack temporary, and a helper would exceed the
// inlining budget and cost a call on every push.
//
//arrow:hotpath O(1) enqueue: tick bucket, or a far wheel past the epoch
func (q *ladderQueue) push(at Time, seq uint64, kind evKind, to, from graph.NodeID, msg Message) {
	if at < q.base {
		panic("sim: scheduling into the past")
	}
	q.size++
	if at >= q.horizon && (at^q.base)>>heapShift != 0 {
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
		q.farLink(s, at)
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

// farLink links the freshly filled slot s, due at at beyond the current
// epoch but inside the position's 2²⁷-tick block, into nextEp when at
// lies in the next epoch, else into the far wheel whose alignment it
// shares with the position; either way the push counts against the
// wheel that alignment selects. Placement within the list follows the
// arbitration exactly as in the ring (see the order invariant).
//
//arrow:hotpath O(1) far enqueue: one list link, no sift
func (q *ladderQueue) farLink(s int32, at Time) {
	var b *tickBucket
	if at-q.horizon < ringSize {
		b = &q.nextEp
		q.stats.FarPushes[q.nextEpLevel()]++
	} else {
		var k int
		b, k = q.farBucket(at)
		q.stats.FarPushes[k]++
	}
	if q.arb == ArbLIFO && b.head != nilSlot {
		q.arena[s].next = b.head
		b.head = s
	} else {
		q.appendSlot(b, s)
	}
}

// farBucket returns the far-wheel list for time at (and its level),
// marking it occupied, and allocates the level's lists the first time
// anything reaches it. Callers guarantee at >= horizon and at within
// the position's 2²⁷-tick block.
func (q *ladderQueue) farBucket(at Time) (*tickBucket, int) {
	k := 0
	if (at^q.base)>>(2*ringBits) != 0 {
		k = 1
	}
	w := &q.far[k]
	if w.bucket == nil {
		w.bucket = newFarBuckets()
	}
	idx := int(at>>(ringBits*(k+1))) & ringMask
	b := &w.bucket[idx]
	if b.head == nilSlot {
		w.occupied[idx>>6] |= 1 << (idx & 63)
		w.cnt++
	}
	return b, k
}

// nextEpLevel is the far wheel whose alignment the epoch after the
// position's selects: wheel 1 when that epoch starts a super-epoch,
// else wheel 0.
func (q *ladderQueue) nextEpLevel() int {
	if q.horizon&(1<<(2*ringBits)-1) == 0 {
		return 1
	}
	return 0
}

// newFarBuckets returns one far wheel's lists, every one empty.
func newFarBuckets() *[ringSize]tickBucket {
	b := new([ringSize]tickBucket)
	for i := range b {
		b[i] = tickBucket{head: nilSlot, tail: nilSlot}
	}
	return b
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

// place links the already-filled slot s into the tier its time selects
// from the current position. It is the transfer half of the order
// invariant: refill moves events down in source order and place always
// appends.
//
//arrow:hotpath relink one tier down: no event copy
func (q *ladderQueue) place(s int32) {
	at := q.cellAt(s)
	if at >= q.horizon {
		b, _ := q.farBucket(at)
		q.appendSlot(b, s)
		return
	}
	idx := int(at) & ringMask
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
// refill and compact run only from inside a pop, never while a cell is
// out.
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

// nextOccupiedDelta returns the distance from slot idx to the next set
// bit of one level's occupancy bitmap — for the ring the tick gap to
// the next pending tick, for a far wheel the bucket gap. Levels are
// aligned, so every occupied slot lies above the position's; callers
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

// refill brings events into the empty ring. While nextEp holds events
// the next epoch is the earliest pending one, and openNextEpoch moves
// the ring there. Otherwise refill opens the next occupied bucket of the
// lowest non-empty far tier — wheel 0, else wheel 1, else the heap's
// next 2²⁷-tick block — repositions the ring at that bucket's first
// tick and moves the bucket's events one tier down, in list order,
// until the ring holds an event. Called only with the ring empty and
// events pending.
//
//arrow:hotpath cascade and pour: one relink per event moved
func (q *ladderQueue) refill() {
	if q.nextEp.head != nilSlot {
		q.openNextEpoch()
		return
	}
	for q.ringCnt == 0 {
		k := 0
		for k < farLevels && q.far[k].cnt == 0 {
			k++
		}
		// A level-k bucket spans 1<<shift ticks; for k == farLevels
		// that is the heap's block.
		shift := uint(ringBits * (k + 1))
		var start Time
		idx := 0
		if k < farLevels {
			cur := int(q.base>>shift) & ringMask
			idx = cur + nextOccupiedDelta(&q.far[k].occupied, cur)
			start = (q.base>>shift + Time(idx-cur)) << shift
		} else {
			start = q.heap[0].ev.at >> shift << shift
		}
		q.curPrepared = false
		q.base, q.horizon = start, start+ringSize
		q.stats.Refills++
		if k == farLevels {
			q.pourHeap()
			continue
		}
		w := &q.far[k]
		head := w.bucket[idx].head
		w.bucket[idx] = tickBucket{head: nilSlot, tail: nilSlot}
		w.occupied[idx>>6] &^= 1 << (idx & 63)
		w.cnt--
		if k == 0 && w.cnt == 0 && q.far[1].cnt == 0 && len(q.heap) == 0 {
			head = q.compact(head)
		}
		q.pour(head)
	}
}

// openNextEpoch is refill's step while nextEp holds events: it moves
// the position to the start of the next epoch and pours into the ring
// that epoch's far bucket — wheel 0's, or wheel 1's when the epoch
// starts a super-epoch, whose later epochs go on to wheel 0 — together
// with nextEp. The far bucket's events were pushed before nextEp's (see
// the order invariant), so the two lists are joined older first, or
// under LIFO newer first, and poured as one: one refill. When the
// epoch's wheel is wheel 0 and the far tier is empty afterwards, the
// joined list holds every pending event and compact may rebuild the
// arena around it.
//
//arrow:hotpath epoch crossing: one list join, one relink per event moved
func (q *ladderQueue) openNextEpoch() {
	k := q.nextEpLevel()
	start := q.horizon
	q.curPrepared = false
	q.base, q.horizon = start, start+ringSize
	q.stats.Refills++
	older := tickBucket{head: nilSlot, tail: nilSlot}
	w := &q.far[k]
	if idx := int(start>>(ringBits*(k+1))) & ringMask; w.occupied[idx>>6]>>(idx&63)&1 != 0 {
		older = w.bucket[idx]
		w.bucket[idx] = tickBucket{head: nilSlot, tail: nilSlot}
		w.occupied[idx>>6] &^= 1 << (idx & 63)
		w.cnt--
	}
	first, second := older, q.nextEp
	if q.arb == ArbLIFO {
		first, second = second, first
	}
	q.nextEp = tickBucket{head: nilSlot, tail: nilSlot}
	head := first.head
	if head == nilSlot {
		head = second.head
	} else {
		q.arena[first.tail].next = second.head
	}
	if k == 0 && w.cnt == 0 && q.far[1].cnt == 0 && len(q.heap) == 0 {
		head = q.compact(head)
	}
	q.pour(head)
}

// pour moves the list at head one tier down, in list order: each event
// goes where place puts it from the new position.
//
//arrow:hotpath one relink per event moved
func (q *ladderQueue) pour(head int32) {
	for s := head; s != nilSlot; {
		next := q.arena[s].next
		q.place(s)
		q.stats.Cascaded++
		s = next
	}
}

// pourHeap moves every heap event of the position's 2²⁷-tick block into
// the arena, converting each into a cell (and its seq into the column
// under random arbitration). The ring, nextEp and the wheels are empty
// when it runs (refill reaches the heap last), and the heap emits each
// tick's events in ascending (pri, seq), so appending them is final
// order. A completely drained heap releases its oversized backing array.
//
//arrow:hotpath heap block pour: one sift-down and one link per event
func (q *ladderQueue) pourHeap() {
	var e event
	for len(q.heap) > 0 && (q.heap[0].ev.at^q.base)>>heapShift == 0 {
		q.heap.pop(&e)
		s := q.alloc()
		c := &q.arena[s]
		c.msg, c.to, c.from, c.tk = e.msg, e.to, e.from, cellTK(e.at, e.kind)
		if q.arb == ArbRandom {
			q.seqs[s] = e.seq
		}
		q.place(s)
		q.stats.Cascaded++
	}
	if len(q.heap) == 0 && cap(q.heap) > overflowRetainCap {
		q.heap = nil
	}
}

// compact runs when the far tier has just emptied: the list at head
// holds every pending event. If the arena is a burst's leftover — above
// the retain cap and more than four times the live count — it is
// rebuilt around that list (slots 0..size-1, same order), the seq
// column with it under random arbitration, and the old arrays released.
// Returns the list's new head.
func (q *ladderQueue) compact(head int32) int32 {
	if len(q.arena) <= overflowRetainCap || len(q.arena) <= 4*q.size {
		return head
	}
	fresh := make([]cell, q.size)
	var seqs []uint64
	if q.arb == ArbRandom {
		seqs = make([]uint64, q.size)
	}
	i := 0
	for s := head; s != nilSlot; s = q.arena[s].next {
		fresh[i] = q.arena[s]
		fresh[i].next = int32(i + 1)
		if seqs != nil {
			seqs[i] = q.seqs[s]
		}
		i++
	}
	fresh[i-1].next = nilSlot
	q.arena, q.seqs, q.free = fresh, seqs, nilSlot
	return 0
}
