package sim

import (
	"path/filepath"
	"reflect"
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

// simResult is everything a scheduler could change about a run.
type simResult struct {
	makespan             Time
	msgs, hops, events   int64
	trace                []simDelivery
	sched                SchedStats // ladder only; not compared
	model                byte       // 0 sync, 1 scaled sync, 2 AsyncUniform, 3 AsyncBimodal
	arb                  Arbitration
	closures, nodeTimers int
}

// simScript runs one byte-script as a whole simulation under the given
// scheduler. The first four bytes configure it:
//
//	0  topology: low nibble n = 2 + x%15 nodes; high nibble picks a
//	   binary tree (the flat link table, dense link clocks), the implicit
//	   complete metric (Latency/Hops/LinkIndex interface path) or the
//	   same with its LinkIndexer hidden (link clocks in the table)
//	1  latency model: synchronous, scaled synchronous, AsyncUniform or
//	   AsyncBimodal with slow probability 0.25, the scale 1 + (x>>2)%8
//	2  arbitration (x&3)%3, LinkTxTime (x>>2)%4
//	3  start tick simStarts[x%4], seed x>>2
//
// The rest is the op stream. Every dispatched event — message, node
// timer or closure timer — takes the next two bytes and executes each:
// low two bits 0 = send to a neighbour (the argument picks which), 1 =
// Context.After, 2 = Context.AfterNode on the event's node, 3 = nothing;
// for the timers the argument's low four bits index simDelays. Ops are
// consumed in dispatch order, so two schedulers that order events alike
// read the same ops, and two that do not diverge in the trace at once.
// When the stream runs out events stop scheduling and the run drains.
func simScript(kind schedulerKind, script []byte) simResult {
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
	arb := Arbitration((hdr[2] & 3) % 3)
	s := New(Config{
		Topology:    topo,
		Latency:     lat,
		Arbitration: arb,
		Seed:        int64(hdr[3] >> 2),
		scheduler:   kind,
		LinkTxTime:  Time(hdr[2]>>2) % 4,
		MaxEvents:   int64(4*len(script) + 64),
	})
	res := simResult{model: hdr[1] % 4, arb: arb}
	_, isTree := topo.(TreeTopology)
	var act func(ctx *Context, at graph.NodeID)
	closure := func(at graph.NodeID) TimerFunc {
		tag := s.seq + 1
		return func(ctx *Context) {
			res.trace = append(res.trace, simDelivery{ctx.Now(), evTimer, at, -1, tag})
			act(ctx, at)
		}
	}
	act = func(ctx *Context, at graph.NodeID) {
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
				ctx.Send(at, to, s.seq+1)
			case 1:
				res.closures++
				ctx.After(simDelays[a&15], closure(at))
			case 2:
				res.nodeTimers++
				ctx.AfterNode(simDelays[a&15], at)
			}
		}
	}
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		res.trace = append(res.trace, simDelivery{ctx.Now(), evMessage, at, from, msg.(uint64)})
		act(ctx, at)
	})
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		res.trace = append(res.trace, simDelivery{ctx.Now(), evNodeTimer, v, -1, 0})
		act(ctx, v)
	})
	start := simStarts[hdr[3]%4]
	for v := 0; v < n; v++ {
		s.ScheduleNodeAt(start+Time(v%3), graph.NodeID(v))
	}
	res.makespan = s.Run()
	res.msgs, res.hops, res.events = s.Messages(), s.Hops(), s.EventsProcessed()
	res.sched = s.SchedStats()
	return res
}

// simScriptsAgree runs the script under both schedulers and fails on the
// first difference; it returns the ladder's run.
func simScriptsAgree(t *testing.T, script []byte) simResult {
	t.Helper()
	if len(script) > 4096 {
		script = script[:4096]
	}
	want, got := simScript(schedHeap, script), simScript(schedLadder, script)
	for i := 0; i < len(want.trace) && i < len(got.trace); i++ {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("delivery %d: ladder %+v, heap %+v", i, got.trace[i], want.trace[i])
		}
	}
	sched := got.sched
	got.sched = want.sched
	if !reflect.DeepEqual(got, want) {
		nl, nh := len(got.trace), len(want.trace)
		got.trace, want.trace = nil, nil
		t.Fatalf("same deliveries up to the shorter trace (%d ladder, %d heap), then:\nladder %+v\n  heap %+v", nl, nh, got, want)
	}
	got.sched = sched
	return got
}

// FuzzSimLadderMatchesHeap is the simulator-level differential: a whole
// run — topology and link-clock representation, latency model, arbitration, link
// capacity, and a stream of sends, closure timers and node timers with
// delays from the same tick to 300 000 ticks out — delivers the same
// events in the same order with the same counters under the ladder queue
// as under the binary heap. FuzzLadderMatchesHeap checks the queue in
// isolation; this one checks it with send's clamps, reservations and
// sequence-keyed latency draws in the loop. Seeds are the committed
// corpus under testdata/fuzz.
func FuzzSimLadderMatchesHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) { simScriptsAgree(t, script) })
}

// TestSimCorpusReachesEveryTier keeps the committed corpus worth
// replaying: between them its scripts run every latency model and
// arbitration, schedule both timer kinds, and make the ladder push into
// both far wheels and the heap tier and cascade back.
func TestSimCorpusReachesEveryTier(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzSimLadderMatchesHeap/*")
	if err != nil || len(files) < 6 {
		t.Fatalf("committed corpus has %d scripts (err %v), want at least 6", len(files), err)
	}
	models, arbs := map[byte]bool{}, map[Arbitration]bool{}
	var sched SchedStats
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
