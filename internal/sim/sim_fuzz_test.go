package sim

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// simDelays are the delays an op-script can ask for: same tick, the next
// few ticks, both sides of the 512-tick ring, the next epoch, and the
// heap two or more epochs out, up to 300 000 ticks.
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
	cover                scriptCover // coverPour, coverMeet and coverMeetBlock
	policy               FaultPolicy
	episodes             int   // node down/up episodes of the script's fault plan (0: none)
	blocked              int64 // messages dropped or deferred, and node timers deferred
}

// simScript runs one byte-script as a whole simulation. The first four
// bytes configure it:
//
//	0  topology: low nibble n = 2 + x%15 nodes; high nibble picks a
//	   binary tree (the flat link table, dense link clocks), the implicit
//	   complete metric (Latency/Hops/LinkIndex interface path) or the
//	   same with its LinkIndexer hidden (link clocks in the table)
//	1  latency model: synchronous, scaled synchronous, AsyncUniform or
//	   AsyncBimodal with slow probability 0.25, the scale 1 + (x>>2)%8;
//	   bit 5 arms a fault plan (below), bit 6 makes its policy
//	   FaultQueue instead of FaultDrop
//	2  arbitration (x&3)%3, LinkTxTime (x>>2)%4; x>>4, when not zero,
//	   moves the first timers x 2²⁷-tick blocks later and spreads them
//	   2¹⁸ ticks apart instead of one tick (node v's at start + x·2²⁷ +
//	   (v%3)·2¹⁸), so they wait in the heap tier past the block and
//	   pour from it one epoch at a time
//	3  start tick simStarts[x%4], seed x>>2
//
// With a fault plan the next byte gives 1 + x%4 node episodes and three
// bytes each follow: the node (x % n), the down tick (the first timer's
// tick + x) and the length (1 + x%32 ticks). An episode of a node that
// is still down, or was down later, starts at that node's last recovery
// tick, so a node can come up and go down again on one tick.
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
	first := func(v int) Time { return simStarts[hdr[3]%4] + Time(v%3) }
	if blocks := Time(hdr[2] >> 4); blocks != 0 {
		first = func(v int) Time {
			return simStarts[hdr[3]%4] + blocks<<blockShift + Time(v%3)<<(2*ringBits)
		}
	}
	var plan *FaultPlan
	episodes := 0
	if hdr[1]&0x20 != 0 && len(ops) > 0 {
		plan = &FaultPlan{Policy: FaultPolicy(hdr[1] >> 6 & 1)}
		upAt := make([]Time, n)
		for e := 1 + int(ops[0])%4; e > 0 && len(ops) >= 4; e-- {
			v := graph.NodeID(int(ops[1]) % n)
			down := max(first(0)+Time(ops[2]), upAt[v])
			upAt[v] = down + 1 + Time(ops[3]%32)
			plan.Events = append(plan.Events,
				FaultEvent{At: down, Kind: NodeDown, U: v},
				FaultEvent{At: upAt[v], Kind: NodeUp, U: v})
			ops = ops[3:]
			episodes++
		}
		ops = ops[1:]
	}
	// Each event is dispatched once, or deferred once per episode of its
	// node and then dispatched, and each transition is one event: a run
	// that defers an event to the same tick over and over exceeds this.
	s := New(Config{
		Topology:    topo,
		Latency:     lat,
		Arbitration: arb,
		Seed:        seed,
		LinkTxTime:  Time(hdr[2]>>2) % 4,
		Faults:      plan,
		MaxEvents:   int64(4*len(script)+64)*int64(1+episodes) + int64(2*episodes),
	})
	res := simResult{log: pushLog{s: s, faults: plan}, model: hdr[1] % 4, arb: arb, seed: seed, episodes: episodes}
	l := &res.log
	// sending is set around a script's Send, sendDropped by the
	// BlockedHandler when that Send dropped its message: the one send
	// that pushes nothing, and the only one the log may leave out.
	sending, sendDropped := false, false
	if plan != nil {
		res.policy = plan.Policy
		l.firstAt = make(map[uint64]Time)
		s.SetBlockedHandler(func(ctx *Context, from, to graph.NodeID, msg Message, upAt Time, dropped bool) {
			res.blocked++
			sendDropped = sending && dropped
			if _, seen := l.firstAt[msg.(uint64)]; !seen && !sending {
				l.firstAt[msg.(uint64)] = ctx.Now()
			}
		})
	}
	// meet is nextEpMeetsHeap read after the last push before a pop: at
	// the end of each dispatch and of the initial schedule. The pop that
	// follows is the one it describes, whether it dispatches a handler
	// or (under a fault plan) defers its event; a handler's start adds
	// it to the run's cover, and a pop that poured the heap adds
	// coverPour.
	var meet scriptCover
	heap := 0
	watch := func() { meet, heap = nextEpMeetsHeap(&s.lq), len(s.lq.heap) }
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
		res.cover |= meet
		if len(s.lq.heap) < heap {
			res.cover |= coverPour
		}
		defer watch()
		for i := 0; i < 2 && len(ops) > 0; i++ {
			op, a := ops[0]&3, ops[0]>>2
			ops = ops[1:]
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
				sending, sendDropped = true, false
				ctx.Send(at, to, s.seq+1)
				sending = false
				if !sendDropped {
					l.pushed(evMessage, 0, to, at)
				}
			case 1:
				res.closures++
				ctx.After(simDelays[a&15], closure(at))
				l.pushed(evTimer, ctx.Now()+simDelays[a&15], at, -1)
			case 2:
				res.nodeTimers++
				ctx.AfterNode(simDelays[a&15], at)
				l.pushed(evNodeTimer, ctx.Now()+simDelays[a&15], at, -1)
			}
		}
	}
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		res.msgs++
		l.deliver(simDelivery{ctx.Now(), evMessage, at, from, msg.(uint64)})
		act(ctx, at)
	})
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		l.deliver(simDelivery{ctx.Now(), evNodeTimer, v, -1, 0})
		act(ctx, v)
	})
	for v := 0; v < n; v++ {
		s.ScheduleNodeAt(first(v), graph.NodeID(v))
		l.pushed(evNodeTimer, first(v), graph.NodeID(v), -1)
	}
	watch()
	res.makespan = s.Run()
	res.events = s.EventsProcessed()
	res.sched = s.SchedStats()
	if s.f != nil {
		res.blocked += s.f.timerDeferred
	}
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
	pops, last := checkHeapOrder(t, r.arb, r.seed, &r.log)
	if r.events != pops || pops > 0 && r.makespan != last {
		t.Fatalf("simulator reports %d events to tick %d, the heap replay pops %d to tick %d", r.events, r.makespan, pops, last)
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
// nextEp and the heap tier and pour back. Under every arbitration they
// also pour heap events into cells, and cross into an epoch whose tick
// a heap resident and next-epoch pushes share (seed-nextep-*), once in
// a 2²⁷-tick block's second epoch (seed-block-*). The seed-wheels-*
// names are those of the five-tier queue's far-wheel paths they were
// written for. Their fault scripts (seed-fault-*) block messages or
// node timers under both policies and every arbitration, among them
// seed-fault-lifo-recovery-tick: a node timer deferred to its node's
// recovery tick under LIFO, which spun while the recovery applied only
// when its own event popped.
func TestSimCorpusReachesEveryTier(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSimLadderMatchesHeap/*")
	if err != nil || len(files) < 6 {
		t.Fatalf("committed corpus has %d scripts (err %v), want at least 6", len(files), err)
	}
	models, arbs := map[byte]bool{}, map[Arbitration]bool{}
	var (
		sched SchedStats
		cover [3]scriptCover
	)
	closures, nodeTimers, msgs := 0, 0, int64(0)
	faulted := map[[2]int]bool{} // {policy, arbitration} of scripts that blocked something
	for _, name := range files {
		r := simScriptsAgree(t, corpusBytes(t, name, corpusArgs(t, name, 1)[0]))
		t.Logf("%s: %d events to tick %d, scheduler %+v", filepath.Base(name), r.events, r.makespan, r.sched)
		models[r.model], arbs[r.arb] = true, true
		closures, nodeTimers, msgs = closures+r.closures, nodeTimers+r.nodeTimers, msgs+r.msgs
		sched.FarPushes += r.sched.FarPushes
		sched.HeapPushes += r.sched.HeapPushes
		sched.Poured += r.sched.Poured
		cover[r.arb] |= r.cover
		if r.episodes > 0 && r.blocked > 0 {
			faulted[[2]int{int(r.policy), int(r.arb)}] = true
		}
	}
	for _, p := range []FaultPolicy{FaultDrop, FaultQueue} {
		for arb := range cover {
			if !faulted[[2]int{int(p), arb}] {
				t.Errorf("no %v script under %v blocks a message or node timer", p, Arbitration(arb))
			}
		}
	}
	const paths = coverPour | coverMeet | coverMeetBlock
	for arb, c := range cover {
		if c != paths {
			t.Errorf("%v: corpus reaches paths %03b of %03b (heap pour, next-epoch meet, the meet in a block's second epoch)",
				Arbitration(arb), c/coverPour, paths/coverPour)
		}
	}
	if len(models) != 4 || len(arbs) != 3 {
		t.Errorf("corpus runs latency models %v and arbitrations %v, want all of each", models, arbs)
	}
	if closures == 0 || nodeTimers == 0 || msgs == 0 {
		t.Errorf("corpus schedules %d closure timers, %d node timers, %d messages; want some of each", closures, nodeTimers, msgs)
	}
	if sched.FarPushes == 0 || sched.HeapPushes == 0 || sched.Poured == 0 {
		t.Errorf("corpus misses a scheduler tier: %+v", sched)
	}
}
