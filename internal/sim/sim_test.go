package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/tree"
)

func lineTopology(n int) Topology {
	return TreeTopology{T: tree.PathTree(n)}
}

func TestSynchronousDeliveryTime(t *testing.T) {
	s := New(Config{Topology: lineTopology(3)})
	var arrived []Time
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		arrived = append(arrived, ctx.Now())
		if at == 1 {
			ctx.Send(1, 2, msg)
		}
	})
	s.ScheduleAt(5, func(ctx *Context) { ctx.Send(0, 1, "ping") })
	end := s.Run()
	if len(arrived) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(arrived))
	}
	if arrived[0] != 6 || arrived[1] != 7 {
		t.Errorf("arrival times %v, want [6 7]", arrived)
	}
	if end != 7 {
		t.Errorf("makespan %d, want 7", end)
	}
	if s.Messages() != 2 {
		t.Errorf("messages = %d, want 2", s.Messages())
	}
}

func TestIllegalSendPanics(t *testing.T) {
	s := New(Config{Topology: lineTopology(3)})
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {})
	s.ScheduleAt(0, func(ctx *Context) { ctx.Send(0, 2, "skip") }) // not neighbours
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-neighbour send")
		}
	}()
	s.Run()
}

func TestFIFOLinkOrderUnderRandomDelays(t *testing.T) {
	// Messages on the same link must be delivered in send order even when
	// the latency model draws wildly different delays.
	for seed := int64(0); seed < 20; seed++ {
		s := New(Config{
			Topology: lineTopology(2),
			Latency:  AsyncUniform(50),
			Seed:     seed,
		})
		var got []int
		s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
			got = append(got, msg.(int))
		})
		s.ScheduleAt(0, func(ctx *Context) {
			for i := 0; i < 20; i++ {
				ctx.Send(0, 1, i)
			}
		})
		s.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("seed %d: FIFO violated: got %v", seed, got)
			}
		}
	}
}

func TestTimersFireInOrder(t *testing.T) {
	s := New(Config{Topology: lineTopology(2)})
	var seq []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		s.ScheduleAt(at, func(ctx *Context) { seq = append(seq, ctx.Now()) })
	}
	s.Run()
	if len(seq) != 3 || seq[0] != 10 || seq[1] != 20 || seq[2] != 30 {
		t.Errorf("timer order %v, want [10 20 30]", seq)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(Config{Topology: lineTopology(2)})
	s.ScheduleAt(5, func(ctx *Context) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		ctx.s.ScheduleAt(1, func(ctx *Context) {})
	})
	s.Run()
}

// TestContextPastPanics: a negative delay from a handler reaches the
// event queue, whose push is the only check left between a handler and
// time running backwards.
func TestContextPastPanics(t *testing.T) {
	for _, c := range []struct {
		name     string
		schedule func(ctx *Context)
	}{
		{"After", func(ctx *Context) { ctx.After(-1, func(ctx *Context) {}) }},
		{"AfterNode", func(ctx *Context) { ctx.AfterNode(-1, 0) }},
	} {
		name, schedule := c.name, c.schedule
		s := New(Config{Topology: lineTopology(2)})
		s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {})
		ran := false
		s.ScheduleAt(5, func(ctx *Context) {
			defer func() {
				if r := recover(); r != "sim: scheduling into the past" {
					t.Errorf("%s(-1): recovered %v, want the queue's past-time panic", name, r)
				}
			}()
			ran = true
			schedule(ctx)
		})
		s.Run()
		if !ran {
			t.Fatalf("%s: the scheduling timer never ran", name)
		}
	}
}

func TestAfterRelativeTimer(t *testing.T) {
	s := New(Config{Topology: lineTopology(2)})
	var fired Time
	s.ScheduleAt(10, func(ctx *Context) {
		ctx.After(7, func(ctx *Context) { fired = ctx.Now() })
	})
	s.Run()
	if fired != 17 {
		t.Errorf("After fired at %d, want 17", fired)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := New(Config{Topology: lineTopology(2), MaxEvents: 10})
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		ctx.Send(at, from, msg) // ping-pong forever
	})
	s.ScheduleAt(0, func(ctx *Context) { ctx.Send(0, 1, "x") })
	defer func() {
		if recover() == nil {
			t.Error("expected MaxEvents panic")
		}
	}()
	s.Run()
}

func TestArbitrationOrders(t *testing.T) {
	run := func(arb Arbitration, seed int64) []int {
		s := New(Config{Topology: lineTopology(2), Arbitration: arb, Seed: seed})
		var got []int
		s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
			got = append(got, msg.(int))
		})
		// Three messages all arriving at t=1 — but FIFO links force
		// same-link order, so use timers for pure arbitration testing.
		for i := 0; i < 5; i++ {
			i := i
			s.ScheduleAt(1, func(ctx *Context) { got = append(got, i) })
		}
		s.Run()
		return got
	}
	fifo := run(ArbFIFO, 1)
	lifo := run(ArbLIFO, 1)
	for i, v := range fifo {
		if v != i {
			t.Errorf("FIFO arbitration got %v", fifo)
			break
		}
	}
	for i, v := range lifo {
		if v != 4-i {
			t.Errorf("LIFO arbitration got %v", lifo)
			break
		}
	}
	r1 := run(ArbRandom, 7)
	r2 := run(ArbRandom, 7)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Error("random arbitration must be deterministic per seed")
			break
		}
	}
}

// TestLatencyModels checks the seq-keyed draws over seq 1…10⁴ at one
// seed: the uniform model covers its range exactly, the bimodal model's
// slow share is its probability, and a draw is a pure function of (w,
// seed, seq).
func TestLatencyModels(t *testing.T) {
	const seed, draws = 11, 10_000
	if d := Synchronous().Delay(3, seed, 1); d != 3 {
		t.Errorf("sync delay = %d, want 3", d)
	}
	if d := SynchronousScaled(10).Delay(3, seed, 1); d != 30 {
		t.Errorf("scaled sync delay = %d, want 30", d)
	}
	uniform, bimodal := AsyncUniform(5), AsyncBimodal(5, 0.3)
	seen := map[Time]int{}
	slow := 0
	for seq := uint64(1); seq <= draws; seq++ {
		d := uniform.Delay(2, seed, seq)
		if d < 1 || d > 10 {
			t.Fatalf("seq %d: async uniform delay %d out of [1,10]", seq, d)
		}
		seen[d]++
		switch b := bimodal.Delay(2, seed, seq); b {
		case 10:
			slow++
		case 2:
		default:
			t.Fatalf("seq %d: bimodal delay %d, want 2 or 10", seq, b)
		}
		if uniform.Delay(2, seed, seq) != d || bimodal.Delay(2, seed, seq) != bimodal.Delay(2, seed, seq) {
			t.Fatalf("seq %d: a repeated (w, seed, seq) changed its delay", seq)
		}
	}
	if len(seen) != 10 {
		t.Errorf("async uniform at w = 2 returned %d distinct delays %v, want all of [1, 10]", len(seen), seen)
	}
	if share := float64(slow) / draws; math.Abs(share-0.3) > 0.02 {
		t.Errorf("bimodal slow share %.4f, want 0.3 ± 0.02", share)
	}
}

func TestLatencyModelValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { SynchronousScaled(0) },
		func() { AsyncUniform(0) },
		func() { AsyncBimodal(0, 0.5) },
		func() { AsyncBimodal(2, 1.5) },
		func() { AsyncBimodal(2, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMetricTopologyDistancesAndHops(t *testing.T) {
	g := graph.Grid(3, 3)
	m := NewMetricTopology(g)
	if d, ok := m.Latency(0, 8); !ok || d != 4 {
		t.Errorf("metric latency(0,8) = %d,%v want 4,true", d, ok)
	}
	if h := m.Hops(0, 8); h != 4 {
		t.Errorf("metric hops(0,8) = %d, want 4", h)
	}
	if m.NumNodes() != 9 {
		t.Errorf("NumNodes = %d", m.NumNodes())
	}
}

func TestMetricTopologyWeighted(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(0, 2, 20)
	m := NewMetricTopology(g)
	if d, _ := m.Latency(0, 2); d != 10 {
		t.Errorf("latency(0,2) = %d, want 10 (via middle)", d)
	}
	if h := m.Hops(0, 2); h != 2 {
		t.Errorf("hops(0,2) = %d, want 2", h)
	}
}

func TestTreeTopologyRestrictsToTreeEdges(t *testing.T) {
	tr := tree.BalancedBinary(7)
	topo := TreeTopology{T: tr}
	if _, ok := topo.Latency(3, 4); ok {
		t.Error("siblings are not tree-adjacent")
	}
	if w, ok := topo.Latency(1, 3); !ok || w != 1 {
		t.Errorf("parent-child latency = %d,%v", w, ok)
	}
}

func TestDirectTopology(t *testing.T) {
	g := graph.Cycle(5)
	topo := DirectTopology{G: g}
	if _, ok := topo.Latency(0, 2); ok {
		t.Error("non-adjacent nodes must not communicate directly")
	}
	if w, ok := topo.Latency(0, 4); !ok || w != 1 {
		t.Errorf("cycle edge latency = %d,%v", w, ok)
	}
	if topo.Hops(0, 4) != 1 || topo.NumNodes() != 5 {
		t.Error("direct topology accounting wrong")
	}
}

// Property: simulator makespan is deterministic for a fixed seed under
// random latency.
func TestDeterministicMakespan(t *testing.T) {
	prop := func(seed int64) bool {
		runOnce := func() Time {
			s := New(Config{
				Topology: lineTopology(8),
				Latency:  AsyncUniform(7),
				Seed:     seed,
			})
			s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
				hop := msg.(int)
				if hop > 0 && int(at)+1 < 8 {
					ctx.Send(at, at+1, hop-1)
				}
			})
			s.ScheduleAt(0, func(ctx *Context) { ctx.Send(0, 1, 6) })
			return s.Run()
		}
		return runOnce() == runOnce()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSplitRNGStreams: latency draws and arbitration draws hash the event
// seq under separately derived seeds, so enabling random arbitration must
// not perturb message delays. With strictly increasing send times there
// are no ties to arbitrate, so arrivals under ArbFIFO and ArbRandom must
// coincide.
func TestSplitRNGStreams(t *testing.T) {
	run := func(arb Arbitration) []Time {
		s := New(Config{
			Topology:    lineTopology(2),
			Latency:     AsyncUniform(40),
			Arbitration: arb,
			Seed:        3,
		})
		var arrivals []Time
		s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
			arrivals = append(arrivals, ctx.Now())
		})
		for i := 0; i < 30; i++ {
			// Distinct send times spaced beyond the max delay: no ties.
			at := Time(i * 100)
			s.ScheduleAt(at, func(ctx *Context) { ctx.Send(0, 1, struct{}{}) })
		}
		s.Run()
		return arrivals
	}
	fifo := run(ArbFIFO)
	random := run(ArbRandom)
	if len(fifo) != len(random) {
		t.Fatalf("delivery counts differ: %d vs %d", len(fifo), len(random))
	}
	for i := range fifo {
		if fifo[i] != random[i] {
			t.Fatalf("arrival %d differs: fifo=%d random=%d — arbitration leaked into latency stream",
				i, fifo[i], random[i])
		}
	}
}

// TestFIFOLinkOrderOnMetricTopology exercises MetricTopology's n² link
// space and the expiring FIFO clock it gets: per-link FIFO order must
// survive random delays.
func TestFIFOLinkOrderOnMetricTopology(t *testing.T) {
	g := graph.Grid(3, 3)
	topo := NewMetricTopology(g)
	if _, ok := Topology(topo).(LinkIndexer); !ok {
		t.Fatal("MetricTopology must implement LinkIndexer")
	}
	for seed := int64(0); seed < 10; seed++ {
		s := New(Config{Topology: topo, Latency: AsyncUniform(30), Seed: seed})
		var got []int
		s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
			got = append(got, msg.(int))
		})
		s.ScheduleAt(0, func(ctx *Context) {
			for i := 0; i < 15; i++ {
				ctx.Send(0, 8, i) // corner to corner, a multi-hop metric link
			}
		})
		s.Run()
		for i, v := range got {
			if v != i {
				t.Fatalf("seed %d: metric-link FIFO violated: %v", seed, got)
			}
		}
	}
}

// TestTreeTopologyLinkIndexDense: link indices are unique per directed
// tree edge and within [0, NumLinks).
func TestTreeTopologyLinkIndexDense(t *testing.T) {
	tr := tree.BalancedBinary(15)
	topo := TreeTopology{T: tr}
	seen := map[int]bool{}
	for v := 0; v < tr.NumNodes(); v++ {
		for _, e := range tr.Neighbors(graph.NodeID(v)) {
			idx := topo.LinkIndex(graph.NodeID(v), e.To)
			if idx < 0 || idx >= topo.NumLinks() {
				t.Fatalf("link (%d,%d): index %d out of range", v, e.To, idx)
			}
			if seen[idx] {
				t.Fatalf("link (%d,%d): duplicate index %d", v, e.To, idx)
			}
			seen[idx] = true
		}
	}
	if want := 2 * (tr.NumNodes() - 1); len(seen) != want {
		t.Fatalf("indexed %d directed links, want %d", len(seen), want)
	}
}

// TestConfigValidate pins the typed validation front door: malformed
// configs come back as *ConfigError (the drivers and engine surface
// them as errors), and a well-formed config passes.
func TestConfigValidate(t *testing.T) {
	topo := TreeTopology{T: tree.BinaryWalker(8)}
	bad := []struct {
		name, field string
		cfg         Config
	}{
		{"nil-topology", "Topology", Config{}},
		{"negative-tx", "LinkTxTime", Config{Topology: topo, LinkTxTime: -1}},
	}
	for _, c := range bad {
		var ce *ConfigError
		if err := c.cfg.Validate(); !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("%s: Validate error = %v (%T), want *ConfigError on %s", c.name, err, err, c.field)
		}
	}
	good := Config{Topology: topo, LinkTxTime: 3, Latency: AsyncUniform(2), Arbitration: ArbRandom, Faults: &FaultPlan{}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestWindowZeroDelayTimerOrder pins where a node timer lands among
// events already queued: a zero-delay AfterNode runs within its own
// tick, after everything scheduled for that tick before it and before
// every later tick, and a positive delay that lands on an occupied tick
// runs behind that tick's residents — the (at, seq) order. (The name is
// from the parallel drain's lookahead window, whose mid-window
// sub-queue it also checked; this is the serial half.)
func TestWindowZeroDelayTimerOrder(t *testing.T) {
	const n = 64
	type step struct {
		label string
		at    Time
	}
	s := New(Config{Topology: TreeTopology{T: tree.BinaryWalker(n)}, Latency: SynchronousScaled(8)})
	order := make([][]step, n)
	var global []graph.NodeID // nodes in the order their tick-1 timers ran
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		switch len(order[v]) {
		case 0: // tick 1: a zero-delay follow-up and one landing on tick 4
			order[v] = append(order[v], step{"first", ctx.Now()})
			global = append(global, v)
			ctx.AfterNode(0, v)
			ctx.AfterNode(3, v)
		case 1: // still tick 1
			order[v] = append(order[v], step{"zero", ctx.Now()})
			global = append(global, v)
		case 2: // tick 4, scheduled before the run
			order[v] = append(order[v], step{"resident", ctx.Now()})
		default: // tick 4, scheduled at tick 1
			order[v] = append(order[v], step{"late", ctx.Now()})
		}
	})
	for v := graph.NodeID(0); v < n; v++ {
		s.ScheduleNodeAt(1, v)
		s.ScheduleNodeAt(4, v)
	}
	s.Run()
	want := []step{{"first", 1}, {"zero", 1}, {"resident", 4}, {"late", 4}}
	for v := range order {
		if !reflect.DeepEqual(order[v], want) {
			t.Fatalf("node %d ran %v, want %v", v, order[v], want)
		}
	}
	// Across nodes: every pre-scheduled tick-1 timer before any zero-delay
	// one, both groups in scheduling order.
	for i, v := range global {
		if v != graph.NodeID(i%n) {
			t.Fatalf("tick 1 ran node %d in position %d, want node %d", v, i, i%n)
		}
	}
}
