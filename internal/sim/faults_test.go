package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// pingPong runs a two-node ping-pong for `rounds` messages under the
// given plan, returning per-arrival times and the drop count.
func pingPong(t *testing.T, plan *FaultPlan, rounds int) ([]Time, *Simulator) {
	t.Helper()
	tr := tree.PathTree(2)
	s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
	var arrivals []Time
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		arrivals = append(arrivals, ctx.Now())
		if len(arrivals) < rounds {
			ctx.Send(at, from, msg)
		}
	})
	s.ScheduleAt(0, func(ctx *Context) { ctx.Send(0, 1, struct{}{}) })
	s.Run()
	return arrivals, s
}

// TestNilAndEmptyPlansAreInert: a nil plan and an empty plan produce the
// exact same trace as no plan at all.
func TestNilAndEmptyPlansAreInert(t *testing.T) {
	base, _ := pingPong(t, nil, 6)
	empty, s := pingPong(t, &FaultPlan{}, 6)
	if !reflect.DeepEqual(base, empty) {
		t.Errorf("empty plan diverged: %v vs %v", empty, base)
	}
	if s.MessagesDropped() != 0 || s.ActiveFaults() != 0 {
		t.Error("empty plan reported fault activity")
	}
}

// TestLinkDownDropsInWindow: with the drop policy, exactly the messages
// sent during the outage are lost and the BlockedHandler reports them
// with the recovery time.
func TestLinkDownDropsInWindow(t *testing.T) {
	tr := tree.PathTree(2)
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 3, Kind: LinkDown, U: 0, V: 1},
		{At: 7, Kind: LinkUp, U: 0, V: 1},
	}}
	s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
	var delivered, blocked []Time
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		delivered = append(delivered, ctx.Now())
	})
	s.SetBlockedHandler(func(ctx *Context, from, to graph.NodeID, msg Message, upAt Time, dropped bool) {
		if !dropped || upAt != 7 {
			t.Errorf("blocked handler: upAt=%d dropped=%v, want 7/true", upAt, dropped)
		}
		blocked = append(blocked, ctx.Now())
	})
	for i := Time(0); i < 10; i++ {
		at := i
		s.ScheduleAt(at, func(ctx *Context) { ctx.Send(0, 1, struct{}{}) })
	}
	s.Run()
	// Sends at t in [3, 7) are blocked (the down event applies before the
	// same-tick sends under FIFO; the up event restores t=7 sends).
	if want := []Time{3, 4, 5, 6}; !reflect.DeepEqual(blocked, want) {
		t.Errorf("blocked at %v, want %v", blocked, want)
	}
	if s.MessagesDropped() != 4 {
		t.Errorf("dropped = %d, want 4", s.MessagesDropped())
	}
	if len(delivered) != 6 {
		t.Errorf("delivered %d messages, want 6", len(delivered))
	}
}

// TestQueuePolicyDefersAndKeepsFIFO: under FaultQueue nothing is lost;
// blocked messages deliver after the heal, without overtaking.
func TestQueuePolicyDefersAndKeepsFIFO(t *testing.T) {
	tr := tree.PathTree(2)
	plan := &FaultPlan{Policy: FaultQueue, Events: []FaultEvent{
		{At: 2, Kind: LinkDown, U: 0, V: 1},
		{At: 10, Kind: LinkUp, U: 0, V: 1},
	}}
	s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
	type arrival struct {
		at  Time
		seq int
	}
	var got []arrival
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		got = append(got, arrival{ctx.Now(), msg.(int)})
	})
	for i := 0; i < 6; i++ {
		seq := i
		s.ScheduleAt(Time(i), func(ctx *Context) { ctx.Send(0, 1, seq) })
	}
	s.Run()
	if s.MessagesDropped() != 0 {
		t.Fatalf("queue policy dropped %d messages", s.MessagesDropped())
	}
	if s.MessagesDeferred() != 4 {
		t.Errorf("deferred = %d, want 4", s.MessagesDeferred())
	}
	want := []arrival{{1, 0}, {2, 1}, {11, 2}, {11, 3}, {11, 4}, {11, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("arrivals %v, want %v", got, want)
	}
}

// TestNodeDownGatesTimersAndDelivery: a down node's timers defer to its
// recovery, and messages that were in flight when it died are blocked at
// delivery time.
func TestNodeDownGatesTimersAndDelivery(t *testing.T) {
	tr := tree.PathTree(3)
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 4, Kind: NodeDown, U: 1},
		{At: 9, Kind: NodeUp, U: 1},
	}}
	s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
	var timerAt Time
	var droppedInFlight bool
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) { timerAt = ctx.Now() })
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		t.Errorf("message delivered to %d at %d; all sends target the dead window", at, ctx.Now())
	})
	s.SetBlockedHandler(func(ctx *Context, from, to graph.NodeID, msg Message, upAt Time, dropped bool) {
		if to == 1 && dropped {
			droppedInFlight = true
		}
	})
	s.ScheduleNodeAt(5, 1) // timer during the outage: defers to t=9
	// Sent at t=3 (node up), arrives t=4 when the node is down: blocked
	// at delivery.
	s.ScheduleAt(3, func(ctx *Context) { ctx.Send(0, 1, struct{}{}) })
	s.Run()
	if timerAt != 9 {
		t.Errorf("deferred timer fired at %d, want 9", timerAt)
	}
	if s.f.timerDeferred != 1 {
		t.Errorf("timers deferred = %d, want 1", s.f.timerDeferred)
	}
	if !droppedInFlight {
		t.Error("in-flight message to a dead node was not blocked at delivery")
	}
}

// TestFaultObserverSeesTransitionsInOrder: the observer runs for every
// transition with the liveness state already updated, and ActiveFaults
// tracks the down count.
func TestFaultObserverSeesTransitionsInOrder(t *testing.T) {
	tr := tree.PathTree(3)
	plan := &FaultPlan{Events: []FaultEvent{
		{At: 8, Kind: NodeUp, U: 2},
		{At: 2, Kind: NodeDown, U: 2},
		{At: 4, Kind: LinkDown, U: 0, V: 1},
		{At: 6, Kind: LinkUp, U: 0, V: 1},
	}}
	s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
	var seen []string
	s.SetFaultObserver(func(ctx *Context, ev FaultEvent) {
		seen = append(seen, fmt.Sprintf("%d:%v(active=%d)", ctx.Now(), ev.Kind, ctx.ActiveFaults()))
		if ev.Kind == NodeDown && ctx.NodeDownUntil(ev.U) != 8 {
			t.Errorf("NodeDownUntil = %d, want 8", ctx.NodeDownUntil(ev.U))
		}
	})
	s.Run()
	want := []string{
		"2:node-down(active=1)", "4:link-down(active=2)",
		"6:link-up(active=1)", "8:node-up(active=0)",
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observer saw %v, want %v", seen, want)
	}
}

// TestPlanValidation rejects malformed plans.
func TestPlanValidation(t *testing.T) {
	topo := TreeTopology{T: tree.PathTree(3)}
	cases := []struct {
		name string
		plan FaultPlan
	}{
		{"up without down", FaultPlan{Events: []FaultEvent{{At: 1, Kind: LinkUp, U: 0, V: 1}}}},
		{"double down", FaultPlan{Events: []FaultEvent{
			{At: 1, Kind: NodeDown, U: 1}, {At: 2, Kind: NodeDown, U: 1}}}},
		{"non-link", FaultPlan{Events: []FaultEvent{{At: 1, Kind: LinkDown, U: 0, V: 2}}}},
		{"out of range", FaultPlan{Events: []FaultEvent{{At: 1, Kind: NodeDown, U: 9}}}},
		{"negative time", FaultPlan{Events: []FaultEvent{{At: -1, Kind: NodeDown, U: 0}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(topo); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
	ok := FaultPlan{Events: []FaultEvent{
		{At: 1, Kind: NodeDown, U: 1}, {At: 5, Kind: NodeUp, U: 1},
		{At: 9, Kind: NodeDown, U: 1}, // trailing permanent failure is legal
	}}
	if err := ok.Validate(topo); err != nil {
		t.Errorf("legal plan rejected: %v", err)
	}
	if ok.Healing() {
		t.Error("plan with a permanent failure reported Healing")
	}
	if !(&FaultPlan{}).Healing() || !(*FaultPlan)(nil).Healing() {
		t.Error("empty/nil plans must be Healing")
	}
}

// TestPermanentFailureDropsEvenUnderQueuePolicy: FaultQueue cannot stall
// a message forever; permanent blockage degrades to a reported drop.
func TestPermanentFailureDropsEvenUnderQueuePolicy(t *testing.T) {
	tr := tree.PathTree(2)
	plan := &FaultPlan{Policy: FaultQueue, Events: []FaultEvent{
		{At: 1, Kind: NodeDown, U: 1},
	}}
	s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		t.Error("message delivered through a permanent failure")
	})
	var gotUpAt Time
	s.SetBlockedHandler(func(ctx *Context, from, to graph.NodeID, msg Message, upAt Time, dropped bool) {
		gotUpAt = upAt
		if !dropped {
			t.Error("permanent blockage must drop")
		}
	})
	s.ScheduleAt(2, func(ctx *Context) { ctx.Send(0, 1, struct{}{}) })
	if s.Run(); gotUpAt != FaultNever {
		t.Errorf("upAt = %d, want FaultNever", gotUpAt)
	}
}

// TestChurnGeneratorsDeterministicAndHealing: churn expansion is a pure
// function of its inputs, produces validated healing plans, and scales
// with the rate.
func TestChurnGeneratorsDeterministicAndHealing(t *testing.T) {
	tr := tree.BalancedBinary(31)
	links := TreeLinks(tr)
	if len(links) != 30 {
		t.Fatalf("TreeLinks returned %d links, want 30", len(links))
	}
	a := LinkChurn(links, 1.5, 20, 10, 500, 7)
	b := LinkChurn(links, 1.5, 20, 10, 500, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("LinkChurn is not deterministic")
	}
	planA := &FaultPlan{Events: a}
	if err := planA.Validate(TreeTopology{T: tr}); err != nil {
		t.Fatalf("generated link plan invalid: %v", err)
	}
	if !planA.Healing() {
		t.Error("generated link plan is not healing")
	}
	nodes := NodeChurn(31, func(v graph.NodeID) bool { return v != 0 }, 1, 20, 10, 500, 7)
	for _, ev := range nodes {
		if ev.U == 0 {
			t.Fatal("NodeChurn ignored the keep filter")
		}
		if ev.At < 10 {
			t.Fatalf("churn event at %d before start", ev.At)
		}
	}
	planN := &FaultPlan{Events: nodes}
	if err := planN.Validate(TreeTopology{T: tr}); err != nil {
		t.Fatalf("generated node plan invalid: %v", err)
	}
	if !planN.Healing() {
		t.Error("generated node plan is not healing")
	}
	lo := len(LinkChurn(links, 0.5, 20, 10, 500, 7))
	hi := len(LinkChurn(links, 4, 20, 10, 500, 7))
	if lo >= hi {
		t.Errorf("churn volume did not grow with rate: %d vs %d", lo, hi)
	}
	if len(LinkChurn(links, 0, 20, 10, 500, 7)) != 0 {
		t.Error("zero rate produced churn")
	}
}

// TestSchedulerEquivalenceWithFaults: the ladder realizes the binary
// heap's trace when fault transitions, which sim.New pushes itself, are
// interleaved with messages and deferred deliveries. The trace length
// and FNV-1a 64 digest of each horizon's trace were captured from a run
// under a binary-heap scheduler, and the ladder run must reproduce them.
// The plan's horizon decides which tiers hold the pre-scheduled
// transitions and the deliveries deferred to a heal: 200 ticks stays in
// the ring, 600 000 fills both far wheels, 2²⁹ reaches the heap — each
// checked against the ladder's own counters. Message traffic restarts at
// three points of the horizon so it meets transitions cascading out of
// every tier.
func TestSchedulerEquivalenceWithFaults(t *testing.T) {
	tr := tree.BalancedBinary(15)
	for _, c := range []struct {
		horizon              Time
		wheel0, wheel1, heap bool   // tiers the ladder run must have pushed into
		n                    int    // heap-run trace length
		digest               uint64 // heap-run FNV-1a 64 of the trace joined by newlines
	}{
		{200, false, false, false, 5203, 0x6cf815769108c70f},
		{600_000, true, true, false, 5593, 0xbb7f3a69354d8ce6},
		{1 << 29, false, true, true, 6042, 0x5114d04964a90297},
	} {
		horizon := c.horizon
		plan := &FaultPlan{Policy: FaultQueue, Events: append(
			LinkChurn(TreeLinks(tr), 2, horizon/20, 5, horizon, 3),
			NodeChurn(15, func(v graph.NodeID) bool { return v != 0 }, 1, horizon/20, 5, horizon, 4)...)}
		s := New(Config{Topology: TreeTopology{T: tr}, Faults: plan})
		var trace []string
		s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
			trace = append(trace, fmt.Sprintf("m:%d:%d<-%d", ctx.Now(), at, from))
			if ctx.Now() < msg.(Time)+150 {
				ctx.Send(at, from, msg)
			}
		})
		s.SetFaultObserver(func(ctx *Context, ev FaultEvent) {
			trace = append(trace, fmt.Sprintf("f:%d:%v:%d,%d", ctx.Now(), ev.Kind, ev.U, ev.V))
		})
		for _, start := range []Time{0, horizon / 3, 2 * horizon / 3} {
			for v := 1; v < 15; v++ {
				leaf := graph.NodeID(v)
				s.ScheduleAt(start+Time(v%3), func(ctx *Context) {
					ctx.Send(leaf, tr.Parent(leaf), start)
				})
			}
		}
		s.Run()
		trace = append(trace, fmt.Sprintf("end:%d:%d:%d", s.Now(), s.MessagesDropped(), s.MessagesDeferred()))
		h := fnv.New64a()
		h.Write([]byte(strings.Join(trace, "\n")))
		if len(trace) != c.n || h.Sum64() != c.digest {
			t.Errorf("horizon %d: trace of %d entries with digest %016x, the heap run's had %d with %016x",
				horizon, len(trace), h.Sum64(), c.n, c.digest)
		}
		st := s.SchedStats()
		if (c.wheel0 && st.FarPushes[0] == 0) || (c.wheel1 && st.FarPushes[1] == 0) || (c.heap && st.HeapPushes == 0) {
			t.Errorf("horizon %d: run did not reach the far tiers it was sized for (stats %+v)", horizon, st)
		}
	}
}
