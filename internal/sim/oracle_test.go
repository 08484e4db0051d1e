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
type pushLog struct {
	s      *Simulator
	pushes []pushRec
	trace  []simDelivery
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
// log must hold every push of the run (seqs 1, 2, …, no fault plan), so
// a lost, duplicated or invented event fails too.
func checkHeapOrder(t *testing.T, arb Arbitration, seed int64, l *pushLog) {
	t.Helper()
	msgAt := make(map[uint64]Time)
	for _, d := range l.trace {
		if d.kind == evMessage {
			msgAt[d.tag] = d.at
		}
	}
	arbSeed := DeriveSeed(seed, 2)
	var h eventHeap
	next := 0 // the first push not yet replayed
	replay := func(step int) {
		for ; next < len(l.pushes) && l.pushes[next].step == step; next++ {
			p := l.pushes[next]
			if p.seq != uint64(next+1) {
				t.Fatalf("push %d of the log has seq %d: the log misses a push of the run", next, p.seq)
			}
			at := p.at
			if p.kind == evMessage {
				var ok bool
				if at, ok = msgAt[p.seq]; !ok {
					t.Fatalf("message seq %d (%d -> %d, step %d) was never delivered", p.seq, p.from, p.to, p.step)
				}
			}
			var pri int64
			switch arb {
			case ArbFIFO:
				pri = int64(p.seq)
			case ArbLIFO:
				pri = -int64(p.seq)
			case ArbRandom:
				pri = DeriveSeed(arbSeed, int(p.seq))
			}
			e := h.push(at, pri, p.seq)
			e.kind, e.to, e.from = p.kind, p.to, p.from
		}
	}
	replay(-1)
	for i, got := range l.trace {
		if len(h) == 0 {
			t.Fatalf("delivery %d: ladder %+v, heap replay has nothing pending", i, got)
		}
		var e event
		h.pop(&e)
		want := simDelivery{e.at, e.kind, e.to, e.from, e.seq}
		if e.kind == evNodeTimer {
			want.tag = 0
		}
		if got != want {
			t.Fatalf("delivery %d: ladder %+v, heap replay %+v", i, got, want)
		}
		replay(i)
	}
	if len(h) > 0 || next < len(l.pushes) {
		t.Fatalf("ladder delivered %d events; the heap replay holds %d more and %d pushes unreplayed", len(l.trace), len(h), len(l.pushes)-next)
	}
}
