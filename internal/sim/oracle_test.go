package sim

import (
	"testing"

	"repro/internal/graph"
)

// simDelivery is one dispatched event as a handler sees it. tag tells
// apart two messages, or two closures, that agree on everything else: the
// scheduling site stamps the payload with the sequence number the
// simulator is about to assign. Node timers carry no payload (tag 0), so
// no handler can tell two of them on one node and tick apart either.
type simDelivery struct {
	at       Time
	kind     evKind
	to, from graph.NodeID
	tag      uint64
}

// pushRec is one scheduling call a test made: the seq the simulator
// assigned it, the dispatch step whose handler made it (-1 before Run),
// and the event it scheduled. A timer's tick is fixed by the call; a
// message's (at is unused) is read from the delivery tagged with its seq.
type pushRec struct {
	seq      uint64
	step     int
	kind     evKind
	at       Time
	to, from graph.NodeID
}

// pushLog is one run as checkHeapOrder replays it: every scheduling call
// the test made, and every delivery its handlers saw, in dispatch order.
// Under a fault plan, firstAt holds the tick at which a message that was
// blocked on arrival (deferred or dropped, the tag's BlockedHandler call
// at dispatch) first popped; its delivery, if any, comes later.
type pushLog struct {
	s       *Simulator
	pushes  []pushRec
	trace   []simDelivery
	faults  *FaultPlan
	firstAt map[uint64]Time
}

// deliver records the delivery the running handler was called for; the
// scheduling calls it makes next belong to this dispatch step.
func (l *pushLog) deliver(d simDelivery) { l.trace = append(l.trace, d) }

// pushed records the scheduling call just made: a timer of the given kind
// for node to at tick at (from -1), or a message from node from to node
// to.
func (l *pushLog) pushed(kind evKind, at Time, to, from graph.NodeID) {
	l.pushes = append(l.pushes, pushRec{seq: l.s.seq, step: len(l.trace) - 1, kind: kind, at: at, to: to, from: from})
}

// checkHeapOrder is the whole-simulation oracle for the ladder queue: it
// replays the run's own pushes through an eventHeap — those made before
// Run first, then after each pop the pushes its dispatch step made — and
// fails at the first delivery that differs from what the heap pops. The
// priority is recomputed here from the seq under the run's arbitration
// and seed, so nothing the simulator stamped on an event is trusted. The
// log must hold every push the test made, so a lost, duplicated or
// invented event fails too.
//
// Under the log's fault plan (node transitions only) the replay models
// the simulator's liveness rule itself: the plan's transitions take seqs 1…F before any push of
// the test, a tick's transitions apply before any other event of that
// tick, and an event popped for a down node is deferred to its recovery
// tick under the next seq (a message is dropped instead under FaultDrop).
// It returns the number of events the replay popped and the tick of the
// last, which the run's EventsProcessed and makespan must equal.
func checkHeapOrder(t *testing.T, arb Arbitration, seed int64, l *pushLog) (pops int64, last Time) {
	t.Helper()
	msgAt := make(map[uint64]Time)
	for _, d := range l.trace {
		if d.kind == evMessage {
			msgAt[d.tag] = d.at
		}
	}
	for tag, at := range l.firstAt {
		msgAt[tag] = at
	}
	arbSeed := DeriveSeed(seed, 2)
	var h eventHeap
	var seq uint64 // the last seq the replay has assigned
	push := func(at Time, kind evKind, to, from graph.NodeID, tag uint64) {
		seq++
		var pri int64
		switch arb {
		case ArbFIFO:
			pri = int64(seq)
		case ArbLIFO:
			pri = -int64(seq)
		case ArbRandom:
			pri = DeriveSeed(arbSeed, int(seq))
		}
		e := h.push(at, pri, seq)
		e.kind, e.to, e.from, e.msg = kind, to, from, tag
	}
	f := compileFaults(l.faults, l.s.cfg.Topology) // nil without transitions
	if f != nil {
		for _, cf := range f.events {
			push(cf.ev.At, evFault, 0, 0, 0)
		}
	}
	next := 0 // the first push not yet replayed
	replay := func(step int) {
		for ; next < len(l.pushes) && l.pushes[next].step == step; next++ {
			p := l.pushes[next]
			if p.seq != seq+1 {
				t.Fatalf("push %d of the log has seq %d, want %d: the log misses a push of the run", next, p.seq, seq+1)
			}
			at := p.at
			if p.kind == evMessage {
				var ok bool
				if at, ok = msgAt[p.seq]; !ok {
					t.Fatalf("message seq %d (%d -> %d, step %d) was never delivered", p.seq, p.from, p.to, p.step)
				}
			}
			push(at, p.kind, p.to, p.from, p.seq)
		}
	}
	replay(-1)
	i := 0 // the next delivery of the trace
	for len(h) > 0 {
		var e event
		h.pop(&e)
		pops, last = pops+1, e.at
		tag := e.msg.(uint64)
		if f != nil {
			for ; f.next < len(f.events) && f.events[f.next].ev.At <= e.at; f.next++ {
				if cf := f.events[f.next]; cf.ev.Kind == NodeDown {
					f.nodeUpAt[cf.ev.U] = cf.upAt
				} else {
					f.nodeUpAt[cf.ev.U] = 0
				}
			}
			if e.kind == evFault {
				continue
			}
			if upAt := f.nodeUpAt[e.to]; upAt != 0 && e.kind != evTimer {
				if upAt != FaultNever && (e.kind == evNodeTimer || f.policy == FaultQueue) {
					push(upAt, e.kind, e.to, e.from, tag)
				}
				continue
			}
		}
		want := simDelivery{e.at, e.kind, e.to, e.from, tag}
		if e.kind == evNodeTimer {
			want.tag = 0
		}
		if i == len(l.trace) {
			t.Fatalf("ladder delivered %d events; the heap replay delivers %+v next", i, want)
		}
		if got := l.trace[i]; got != want {
			t.Fatalf("delivery %d: ladder %+v, heap replay %+v", i, got, want)
		}
		replay(i)
		i++
	}
	if i < len(l.trace) || next < len(l.pushes) {
		t.Fatalf("ladder delivered %d events, the heap replay %d; %d pushes unreplayed", len(l.trace), i, len(l.pushes)-next)
	}
	return pops, last
}
