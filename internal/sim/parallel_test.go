package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/tree"
)

// tokenCase is one TestParallelDrainBitIdentical input: a latency model,
// a link capacity, an optional topology wrapper selecting a link-state
// tier, whether to record through a non-shardable recorder, and a think
// time added to every re-issue (0 keeps the timers inside the ring).
type tokenCase struct {
	model  func() LatencyModel
	tx     Time
	wrap   func(TreeTopology) Topology
	seqRec bool
	think  Time
}

// tokenResult is everything a worker count could perturb: makespan,
// counters, the recorded distributions and — with seqRec — the exact
// sequence of RecordRequest calls.
type tokenResult struct {
	mk                 Time
	msgs, hops, events int64
	latDist, hopDist   stats.Dist
	calls              []recCall
}

type recCall struct {
	latency int64
	hops    int
}

// seqRecorder is deliberately not a stats.ShardableRecorder: under the
// parallel drain its calls are logged as opRecord and applied by the
// commit's replay, so the captured sequence is the replay's order.
type seqRecorder struct{ calls []recCall }

func (r *seqRecorder) RecordRequest(latency int64, hops int) {
	r.calls = append(r.calls, recCall{latency, hops})
}

// noIdxTopo hides a topology's LinkIndexer, forcing the map link tier.
type noIdxTopo struct{ Topology }

// pagedTopo reports more links than the dense tier admits, forcing the
// paged link tier (LinkIndex itself is the tree's).
type pagedTopo struct{ TreeTopology }

func (pagedTopo) NumLinks() int { return fifoDenseMax + 1 }

// tokenRun drives a self-contained token-bouncing protocol — every node
// fires a timer, sends a token to the root, the root bounces it back,
// and the origin records the round trip.
func tokenRun(t *testing.T, n, rounds, workers int, c tokenCase) (tokenResult, DrainStats) {
	t.Helper()
	nav := tree.BinaryWalker(n)
	tt := TreeTopology{T: nav}
	var topo Topology = tt
	if c.wrap != nil {
		topo = c.wrap(tt)
	}
	dist := stats.NewDistRecorder()
	seq := &seqRecorder{}
	var rec stats.Recorder = dist
	if c.seqRec {
		rec = seq
	}
	s := New(Config{
		Topology:   topo,
		Latency:    c.model(),
		Seed:       7,
		Workers:    workers,
		LinkTxTime: c.tx,
	})
	issue := make([]Time, n)
	left := make([]int, n)
	for i := range left {
		left[i] = rounds
	}
	s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
		issue[v] = ctx.Now()
		ctx.Send(v, nav.Parent(v), find{origin: v, up: true})
	})
	s.SetAllHandlers(func(ctx *Context, at, from graph.NodeID, msg Message) {
		m := msg.(find)
		if m.up {
			if at == nav.Root() {
				ctx.Send(at, nav.NextHop(at, m.origin), find{origin: m.origin})
				return
			}
			ctx.Send(at, nav.Parent(at), m)
			return
		}
		if at != m.origin {
			ctx.Send(at, nav.NextHop(at, m.origin), m)
			return
		}
		ctx.RecordRequest(rec, int64(ctx.Now()-issue[at]), int(nav.Depth(at))*2)
		left[at]--
		if left[at] > 0 {
			// Think time drawn from the counter-based per-event RNG: the
			// draw is keyed by (seed, node, seq), so it must agree across
			// serial and parallel drains — the bit-identity comparison
			// below pins that.
			ctx.AfterNode(c.think+1+Time(ctx.Draw(0)%3), at)
		}
	})
	for v := 1; v < n; v++ {
		s.ScheduleNodeAt(Time(1+v%3), graph.NodeID(v))
	}
	mk := s.Run()
	return tokenResult{mk, s.Messages(), s.Hops(), s.EventsProcessed(),
		dist.Latency.Snapshot(), dist.Hops.Snapshot(), seq.calls}, s.DrainStats()
}

type find struct {
	origin graph.NodeID
	up     bool
}

// TestParallelDrainBitIdentical pins the lookahead-windowed parallel drain
// against the serial loop: every observable — makespan, message/hop/
// event counters, and the recorded latency and hop distributions down
// to their floating-point means — must match for every worker count.
// The drain has one commit (the serial log replay), so the matrix varies
// what that replay must reproduce: deterministic, seq-keyed and
// stream-RNG delays, with and without per-link capacity state, on the
// dense, map and paged link tiers, through shardable recorders and
// through one whose call sequence only the replay's opRecord order can
// get right. The protocol draws think times from the counter-based
// Context.Draw in every case, so a wrong sequence number shows up too.
func TestParallelDrainBitIdentical(t *testing.T) {
	sync := func() LatencyModel { return Synchronous() }
	// The scaled synchronous model is the wide-window case: MinDelay 8
	// fuses eight ticks per barrier, and the protocol's 1–3-tick think
	// timers all fire mid-window through the in-shard sub-queue.
	sync8 := func() LatencyModel { return SynchronousScaled(8) }
	async4 := func() LatencyModel { return AsyncUniform(4) }
	asyncctr := func() LatencyModel { return AsyncCounter(4) }
	noIdx := func(tt TreeTopology) Topology { return noIdxTopo{tt} }
	paged := func(tt TreeTopology) Topology { return pagedTopo{tt} }
	cases := map[string]tokenCase{
		"sync":          {model: sync},
		"sync/tx":       {model: sync, tx: 2},
		"async4":        {model: async4},
		"asyncctr":      {model: asyncctr},
		"asyncctr/tx":   {model: asyncctr, tx: 1},
		"sync8":         {model: sync8},
		"sync8/tx":      {model: sync8, tx: 2},
		"async4/map/tx": {model: async4, tx: 1, wrap: noIdx},
		"sync/paged/tx": {model: sync, tx: 1, wrap: paged},
		"sync/seqrec":   {model: sync, seqRec: true},
		"sync8/seqrec":  {model: sync8, seqRec: true},
		"async4/seqrec": {model: async4, seqRec: true},
		// Think times that park every re-issue in a far wheel: 600 ticks
		// is the next epoch or the one after (wheel 0), 300 000 the next
		// super-epoch (wheel 1, then a cascade). Between bursts the ring
		// is empty, so the window gather's nextTickWithin has to refill
		// through the wheels without overshooting the window it is
		// walking — at window widths 1 and 8.
		"sync/think600":   {model: sync, think: 600},
		"sync8/think600":  {model: sync8, think: 600},
		"sync/think300k":  {model: sync, think: 300_000},
		"sync8/think300k": {model: sync8, think: 300_000},
	}
	for name, c := range cases {
		want, _ := tokenRun(t, 300, 4, 0, c)
		if c.seqRec && len(want.calls) == 0 {
			t.Fatalf("%s: serial run recorded nothing", name)
		}
		for _, w := range []int{2, 3, 8} {
			got, ds := tokenRun(t, 300, 4, w, c)
			if !reflect.DeepEqual(got, want) {
				i := 0
				for i < len(got.calls) && i < len(want.calls) && got.calls[i] == want.calls[i] {
					i++
				}
				got.calls, want.calls = nil, nil
				t.Fatalf("%s workers=%d diverged from serial (record sequences agree on the first %d calls):\n got %+v\nwant %+v", name, w, i, got, want)
			}
			if ds.Windows == 0 {
				t.Fatalf("%s workers=%d: no parallel window ran; the case exercised only the fallback", name, w)
			}
		}
	}
}

// TestLatencyMinDelay pins every built-in model's lookahead bound: the
// synchronous family promises its scale, everything that can produce a
// unit delay promises exactly 1.
func TestLatencyMinDelay(t *testing.T) {
	cases := []struct {
		m    LatencyModel
		want Time
	}{
		{Synchronous(), 1},
		{SynchronousScaled(8), 8},
		{AsyncUniform(4), 1},
		{AsyncCounter(4), 1},
		{AsyncBimodal(8, 0.5), 1},
	}
	for _, c := range cases {
		if got := c.m.MinDelay(); got != c.want {
			t.Errorf("%s: MinDelay() = %d, want %d", c.m.Name(), got, c.want)
		}
	}
}

// unboundedLat is a window-incompatible model: it cannot bound its
// delays (MinDelay < 1), so Validate must reject it under Workers > 1
// instead of silently degrading.
type unboundedLat struct{ LatencyModel }

func (unboundedLat) MinDelay() Time { return 0 }
func (unboundedLat) Name() string   { return "unbounded" }

// TestValidateRejectsUnboundedMinDelay pins the typed rejection: a
// model whose MinDelay cannot anchor the lookahead window fails
// Validate with a *ConfigError on Workers — but stays legal serially.
func TestValidateRejectsUnboundedMinDelay(t *testing.T) {
	topo := TreeTopology{T: tree.BinaryWalker(8)}
	bad := Config{Topology: topo, Workers: 2, Latency: unboundedLat{Synchronous()}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("Validate accepted Workers=2 with an unbounded-MinDelay model")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Workers" {
		t.Fatalf("Validate error = %v (%T), want *ConfigError on Workers", err, err)
	}
	serial := Config{Topology: topo, Latency: unboundedLat{Synchronous()}}
	if err := serial.Validate(); err != nil {
		t.Fatalf("serial config with unbounded model rejected: %v", err)
	}
}

// TestWindowZeroDelayTimerOrder pins the in-window sub-queue's ordering
// contract directly: a zero-delay node timer created mid-window must
// execute before the same node's pre-scheduled later-tick event — the
// serial (at, seq) order — not drift to the window end or the next
// barrier. The run is wide-window parallel by construction (64 nodes ×
// two initial ticks inside one 8-tick window clears minBatch), verified
// via the drain telemetry.
func TestWindowZeroDelayTimerOrder(t *testing.T) {
	const n = 64
	nav := tree.BinaryWalker(n)
	type step struct {
		label string
		at    Time
	}
	run := func(workers int) ([][]step, DrainStats) {
		s := New(Config{
			Topology: TreeTopology{T: nav},
			Latency:  SynchronousScaled(8),
			Workers:  workers,
		})
		order := make([][]step, n)
		phase := make([]int, n)
		s.SetTimerHandler(func(ctx *Context, v graph.NodeID) {
			switch phase[v] {
			case 0: // tick 1: schedule the zero-delay follow-up
				order[v] = append(order[v], step{"first", ctx.Now()})
				ctx.AfterNode(0, v)
			case 1: // still tick 1, mid-window
				order[v] = append(order[v], step{"zero", ctx.Now()})
			default: // tick 4, same window
				order[v] = append(order[v], step{"later", ctx.Now()})
			}
			phase[v]++
		})
		for v := 0; v < n; v++ {
			s.ScheduleNodeAt(1, graph.NodeID(v))
			s.ScheduleNodeAt(4, graph.NodeID(v))
		}
		s.Run()
		return order, s.DrainStats()
	}
	want := []step{{"first", 1}, {"zero", 1}, {"later", 4}}
	serial, _ := run(0)
	for _, workers := range []int{0, 2, 4} {
		order, ds := run(workers)
		for v := range order {
			if !reflect.DeepEqual(order[v], want) {
				t.Fatalf("workers=%d node %d ran %v, want %v", workers, v, order[v], want)
			}
		}
		if !reflect.DeepEqual(order, serial) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
		if workers > 1 {
			if ds.WindowWidth != 8 || ds.Windows < 1 || ds.MeanBatch() <= 0 {
				t.Fatalf("workers=%d: no parallel window ran (stats %+v); the test exercised only the fallback", workers, ds)
			}
		}
	}
}

// TestConfigValidate pins the typed validation front door: malformed
// configs come back as *ConfigError (the drivers and engine surface
// them as errors), and a well-formed parallel config passes.
func TestConfigValidate(t *testing.T) {
	topo := TreeTopology{T: tree.BinaryWalker(8)}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"nil-topology", Config{}},
		{"negative-tx", Config{Topology: topo, LinkTxTime: -1}},
		{"workers-lifo", Config{Topology: topo, Workers: 2, Arbitration: ArbLIFO}},
		{"workers-random", Config{Topology: topo, Workers: 2, Arbitration: ArbRandom}},
		{"workers-heap", Config{Topology: topo, Workers: 2, Scheduler: SchedHeap}},
		{"workers-faults", Config{Topology: topo, Workers: 2, Faults: &FaultPlan{}}},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate returned nil, want error", c.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: Validate error %T is not *ConfigError", c.name, err)
		}
	}
	good := Config{Topology: topo, Workers: 8, LinkTxTime: 3, Latency: AsyncCounter(2)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestParallelConfigGuards pins the New-time rejections: the drain can
// only reproduce serial order under FIFO arbitration on the ladder
// scheduler without faults.
func TestParallelConfigGuards(t *testing.T) {
	topo := TreeTopology{T: tree.BinaryWalker(8)}
	expectPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New did not panic", name)
			}
		}()
		New(cfg)
	}
	expectPanic("lifo", Config{Topology: topo, Workers: 2, Arbitration: ArbLIFO})
	expectPanic("random", Config{Topology: topo, Workers: 2, Arbitration: ArbRandom})
	expectPanic("heap", Config{Topology: topo, Workers: 2, Scheduler: SchedHeap})
	expectPanic("faults", Config{Topology: topo, Workers: 2, Faults: &FaultPlan{}})
}

// TestCompleteTopologyMatchesMetric pins the implicit complete metric
// against the materialized one on the pairs both can answer.
func TestCompleteTopologyMatchesMetric(t *testing.T) {
	n := 9
	m := NewMetricTopology(graph.Complete(n))
	c := NewCompleteTopology(n)
	if c.NumNodes() != m.NumNodes() || c.NumLinks() != m.NumLinks() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", c.NumNodes(), c.NumLinks(), m.NumNodes(), m.NumLinks())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			uu, vv := graph.NodeID(u), graph.NodeID(v)
			cw, cok := c.Latency(uu, vv)
			mw, mok := m.Latency(uu, vv)
			if cw != mw || cok != mok {
				t.Fatalf("Latency(%d,%d) = (%d,%v), want (%d,%v)", u, v, cw, cok, mw, mok)
			}
			if cok {
				if c.Hops(uu, vv) != m.Hops(uu, vv) {
					t.Fatalf("Hops(%d,%d) mismatch", u, v)
				}
				if c.LinkIndex(uu, vv) != m.LinkIndex(uu, vv) {
					t.Fatalf("LinkIndex(%d,%d) mismatch", u, v)
				}
			}
			if c.Dist(uu, vv) != m.Dist(uu, vv) {
				t.Fatalf("Dist(%d,%d) mismatch", u, v)
			}
		}
	}
}
