package sim

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// simDelays are the delays an op-script can ask for: same tick, the next
// few ticks, both sides of the 512-tick ring, wheel 0 (the next epochs),
// both sides of the 2¹⁸-tick super-epoch and wheel 1.
var simDelays = [16]Time{0, 0, 1, 2, 3, 7, 64, 511, 512, 513, 700, 4096, 1 << 15, 1<<18 - 1, 1 << 18, 300_000}

// simStarts are the ticks a script can start at: zero, and just below an
// epoch, a super-epoch and a 2²⁷-tick block boundary — from the last, a
// delay of 700 and up crosses into the next block, which the ladder keeps
// in its heap tier.
var simStarts = [4]Time{0, 1<<18 - 700, 1<<27 - 600, 1<<27 - 300_000}

// simResult is one script's run: what checkHeapOrder replays, and what
// TestSimCorpusReachesEveryTier counts.
type simResult struct {
	makespan             Time
	msgs, events         int64
	log                  pushLog
	sched                SchedStats
	model                byte // 0 sync, 1 scaled sync, 2 AsyncUniform, 3 AsyncBimodal
	arb                  Arbitration
	seed                 int64
	closures, nodeTimers int
	wheels               scriptCover // far-wheel first allocations (coverFresh0 … coverPourNew) and coverNextEp
}

// simScript runs one byte-script as a whole simulation. The first four
// bytes configure it:
//
//	0  topology: low nibble n = 2 + x%15 nodes; high nibble picks a
//	   binary tree (the flat link table, dense link clocks), the implicit
//	   complete metric (Latency/Hops/LinkIndex interface path) or the
//	   same with its LinkIndexer hidden (link clocks in the table)
//	1  latency model: synchronous, scaled synchronous, AsyncUniform or
//	   AsyncBimodal with slow probability 0.25, the scale 1 + (x>>2)%8
//	2  arbitration (x&3)%3, LinkTxTime (x>>2)%4; x>>4, when not zero,
//	   moves the first timers x 2²⁷-tick blocks later and spreads them
//	   one super-epoch apart instead of one tick (node v's at start +
//	   x·2²⁷ + (v%3)·2¹⁸), so they reach the heap tier and pour into
//	   wheels nothing has allocated yet
//	3  start tick simStarts[x%4], seed x>>2
//
// The rest is the op stream. Every dispatched event — message, node
// timer or closure timer — takes the next two bytes and executes each:
// low two bits 0 = send to a neighbour (the argument picks which), 1 =
// Context.After, 2 = Context.AfterNode on the event's node, 3 = nothing;
// for the timers the argument's low four bits index simDelays. Ops are
// consumed in dispatch order, so a run that orders events wrongly reads
// different ops from the first wrong delivery on. When the stream runs
// out events stop scheduling and the run drains. Every scheduling call is
// logged for checkHeapOrder.
func simScript(t *testing.T, script []byte) simResult {
	var hdr [4]byte
	ops := script[copy(hdr[:], script):]
	n := 2 + int(hdr[0]&15)%15
	nav := tree.BinaryWalker(n)
	var topo Topology
	switch (hdr[0] >> 4) % 3 {
	case 0:
		topo = TreeTopology{T: nav}
	case 1:
		topo = NewCompleteTopology(n)
	case 2:
		topo = noIdxTopo{NewCompleteTopology(n)}
	}
	scale := 1 + int64(hdr[1]>>2)%8
	var lat LatencyModel
	switch hdr[1] % 4 {
	case 0:
		lat = Synchronous()
	case 1:
		lat = SynchronousScaled(scale)
	case 2:
		lat = AsyncUniform(scale)
	case 3:
		lat = AsyncBimodal(scale, 0.25)
	}
	arb, seed := Arbitration((hdr[2]&3)%3), int64(hdr[3]>>2)
	s := New(Config{
		Topology:    topo,
		Latency:     lat,
		Arbitration: arb,
		Seed:        seed,
		LinkTxTime:  Time(hdr[2]>>2) % 4,
		MaxEvents:   int64(4*len(script) + 64),
	})
	res := simResult{log: pushLog{s: s}, model: hdr[1] % 4, arb: arb, seed: seed}
	l := &res.log
	// Every push is bracketed by mark and pushed; a handler's pops are
	// the one popCell between the mark at the end of the previous
	// dispatch (or of the initial schedule) and its own start.
	wheels := wheelWatch{lq: &s.lq}
	_, isTree := topo.(TreeTopology)
	var act func(ctx *Context, at graph.NodeID)
	closure := func(at graph.NodeID) TimerFunc {
		tag := s.seq + 1
		return func(ctx *Context) {
			l.deliver(simDelivery{ctx.Now(), evTimer, at, -1, tag})
			act(ctx, at)
		}
	}
	act = func(ctx *Context, at graph.NodeID) {
		res.wheels |= wheels.popped(t)
		defer wheels.mark()
		for i := 0; i < 2 && len(ops) > 0; i++ {
			op, a := ops[0]&3, ops[0]>>2
			ops = ops[1:]
			wheels.mark()
			switch op {
			case 0:
				to := graph.NodeID((int(at) + 1 + int(a)%(n-1)) % n)
				if isTree {
					// Up to the parent or down to a child: the root (its own
					// parent) has only children, a leaf only its parent.
					to = nav.Parent(at)
					if child := 2*int(at) + 1 + int(a>>1)&1; (a&1 == 1 || to == at) && child < n {
						to = graph.NodeID(child)
					}
					if to == at {
						to = 1 // the root of the two-node tree asked for child 2
					}
				}
				ctx.Send(at, to, s.seq+1)
				l.pushed(evMessage, 0, to, at)
			case 1:
				res.closures++
				ctx.After(simDelays[a&15], closure(at))
				l.pushed(evTimer, ctx.Now()+simDelays[a&15], at, -1)
			case 2:
				res.nodeTimers++
				ctx.AfterNode(simDelays[a&15], at)
				l.pushed(evNodeTimer, ctx.Now()+simDelays[a&15], at, -1)
			}
			res.wheels |= wheels.pushed()
		}
	}
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		l.deliver(simDelivery{ctx.Now(), evMessage, at, from, msg.(uint64)})
		act(ctx, at)
	})
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		l.deliver(simDelivery{ctx.Now(), evNodeTimer, v, -1, 0})
		act(ctx, v)
	})
	first := func(v int) Time { return simStarts[hdr[3]%4] + Time(v%3) }
	if blocks := Time(hdr[2] >> 4); blocks != 0 {
		first = func(v int) Time {
			return simStarts[hdr[3]%4] + blocks<<heapShift + Time(v%3)<<(2*ringBits)
		}
	}
	for v := 0; v < n; v++ {
		wheels.mark()
		s.ScheduleNodeAt(first(v), graph.NodeID(v))
		res.wheels |= wheels.pushed()
		l.pushed(evNodeTimer, first(v), graph.NodeID(v), -1)
	}
	wheels.mark()
	res.makespan = s.Run()
	res.msgs, res.events = s.Messages(), s.EventsProcessed()
	res.sched = s.SchedStats()
	return res
}

// simScriptsAgree runs the script and fails at the first delivery the
// heap replay of its own pushes orders differently (checkHeapOrder), or
// if the simulator's event count and makespan disagree with the trace;
// it returns the run.
func simScriptsAgree(t *testing.T, script []byte) simResult {
	t.Helper()
	if len(script) > 4096 {
		script = script[:4096]
	}
	r := simScript(t, script)
	checkHeapOrder(t, r.arb, r.seed, &r.log)
	trace := r.log.trace
	if r.events != int64(len(trace)) || len(trace) > 0 && r.makespan != trace[len(trace)-1].at {
		t.Fatalf("simulator reports %d events to tick %d for a trace of %d deliveries", r.events, r.makespan, len(trace))
	}
	return r
}

// FuzzSimLadderMatchesHeap is the simulator-level differential: a whole
// run — topology and link-clock representation, latency model,
// arbitration, link capacity, and a stream of sends, closure timers and
// node timers with delays from the same tick to 300 000 ticks out —
// delivers its events in the order a binary heap pops the run's own
// pushes. FuzzLadderMatchesHeap checks the queue in isolation; this one
// checks it with send's clamps, reservations and sequence-keyed latency
// draws in the loop. Seeds are the committed corpus under testdata/fuzz.
func FuzzSimLadderMatchesHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) { simScriptsAgree(t, script) })
}

// TestSimCorpusReachesEveryTier keeps the committed corpus worth
// replaying: between them its scripts run every latency model and
// arbitration, schedule both timer kinds, and make the ladder push into
// both far wheels and the heap tier and cascade back. Under every
// arbitration they also allocate the far wheels by each path that can:
// a fresh push into either wheel, a wheel-1 cascade into wheel 0 and
// one heap pour into both (seed-*-wheels-*), and cross into an epoch
// whose tick a wheel-0 resident and next-epoch pushes share
// (seed-nextep-*).
func TestSimCorpusReachesEveryTier(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSimLadderMatchesHeap/*")
	if err != nil || len(files) < 6 {
		t.Fatalf("committed corpus has %d scripts (err %v), want at least 6", len(files), err)
	}
	models, arbs := map[byte]bool{}, map[Arbitration]bool{}
	var (
		sched  SchedStats
		wheels [3]scriptCover
	)
	closures, nodeTimers, msgs := 0, 0, int64(0)
	for _, name := range files {
		r := simScriptsAgree(t, corpusBytes(t, name, corpusArgs(t, name, 1)[0]))
		t.Logf("%s: %d events to tick %d, scheduler %+v", filepath.Base(name), r.events, r.makespan, r.sched)
		models[r.model], arbs[r.arb] = true, true
		closures, nodeTimers, msgs = closures+r.closures, nodeTimers+r.nodeTimers, msgs+r.msgs
		sched.FarPushes[0] += r.sched.FarPushes[0]
		sched.FarPushes[1] += r.sched.FarPushes[1]
		sched.HeapPushes += r.sched.HeapPushes
		sched.Cascaded += r.sched.Cascaded
		wheels[r.arb] |= r.wheels
	}
	const paths = coverFresh0 | coverFresh1 | coverCascade | coverPourNew | coverNextEp
	for arb, c := range wheels {
		if c != paths {
			t.Errorf("%v: corpus reaches paths %05b of %05b (fresh push allocating wheel 0, wheel 1, cascade allocating, one pour allocating both, next-epoch meet)",
				Arbitration(arb), c/coverFresh0, paths/coverFresh0)
		}
	}
	if len(models) != 4 || len(arbs) != 3 {
		t.Errorf("corpus runs latency models %v and arbitrations %v, want all of each", models, arbs)
	}
	if closures == 0 || nodeTimers == 0 || msgs == 0 {
		t.Errorf("corpus schedules %d closure timers, %d node timers, %d messages; want some of each", closures, nodeTimers, msgs)
	}
	if sched.FarPushes[0] == 0 || sched.FarPushes[1] == 0 || sched.HeapPushes == 0 || sched.Cascaded == 0 {
		t.Errorf("corpus misses a scheduler tier: %+v", sched)
	}
}
