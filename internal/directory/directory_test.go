package directory

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/arrow"
	"repro/internal/centralized"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tree"
)

func TestArrowDirectoryCompletesAllAcquisitions(t *testing.T) {
	tr := tree.BalancedBinary(15)
	res, err := RunArrow(tr, 0, Config{PerNode: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquires != 150 {
		t.Errorf("acquires = %d, want 150", res.Acquires)
	}
	if res.AvgAcquireLatency() <= 0 {
		t.Error("acquire latency must be positive")
	}
	if res.ObjectHops <= 0 {
		t.Error("object never moved — implausible with 15 contending nodes")
	}
}

func TestArrowDirectorySingleNode(t *testing.T) {
	tr := tree.BalancedBinary(1)
	res, err := RunArrow(tr, 0, Config{PerNode: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquires != 5 {
		t.Errorf("acquires = %d", res.Acquires)
	}
	if res.ObjectHops != 0 || res.FindHops != 0 {
		t.Errorf("single node moved the object (%d) or sent finds (%d)",
			res.ObjectHops, res.FindHops)
	}
}

func TestArrowDirectoryObjectLocality(t *testing.T) {
	// On a path with contention concentrated at one end, object travel
	// per op should stay far below the diameter: successive holders are
	// close on the tree.
	tr := tree.PathTree(33)
	res, err := RunArrow(tr, 0, Config{PerNode: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgObjectHops() > 32 {
		t.Errorf("avg object travel %.1f exceeds diameter", res.AvgObjectHops())
	}
}

func TestHomeDirectoryCompletesAllAcquisitions(t *testing.T) {
	g := graph.Complete(12)
	res, err := RunHome(g, 0, Config{PerNode: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquires != 120 {
		t.Errorf("acquires = %d, want 120", res.Acquires)
	}
	// Home-based: every remote acquisition moves the object twice (grant
	// + return). With 11 remote nodes and 10 acquisitions each, plus the
	// home's own: at least 2*110 object hops on a complete graph.
	if res.ObjectHops < 220 {
		t.Errorf("object hops = %d, want >= 220", res.ObjectHops)
	}
}

func TestArrowBeatsHomeUnderContention(t *testing.T) {
	// The Herlihy–Warres observation: the arrow directory outperforms the
	// home-based directory under contention because objects travel
	// directly between successive holders.
	for _, n := range []int{8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tr := tree.BalancedBinary(n)
			g := graph.Complete(n)
			ar, err := RunArrow(tr, 0, Config{PerNode: 20})
			if err != nil {
				t.Fatal(err)
			}
			ho, err := RunHome(g, 0, Config{PerNode: 20})
			if err != nil {
				t.Fatal(err)
			}
			if ar.Makespan > ho.Makespan {
				t.Errorf("arrow makespan %d exceeds home-based %d", ar.Makespan, ho.Makespan)
			}
		})
	}
}

func TestDirectoryValidation(t *testing.T) {
	tr := tree.BalancedBinary(3)
	if _, err := RunArrow(tr, 0, Config{PerNode: 0}); err == nil {
		t.Error("expected PerNode error")
	}
	if _, err := RunArrow(tr, 9, Config{PerNode: 1}); err == nil {
		t.Error("expected root range error")
	}
	g := graph.Complete(3)
	if _, err := RunHome(g, 9, Config{PerNode: 1}); err == nil {
		t.Error("expected home range error")
	}
	if _, err := RunHome(g, 0, Config{PerNode: 0}); err == nil {
		t.Error("expected PerNode error")
	}
	// node.remaining is an int32: a larger count is refused before any
	// state is built, not truncated. A 32-bit int cannot hold one.
	if strconv.IntSize == 32 {
		t.Skip("MaxInt32 + 1 does not fit a 32-bit int")
	}
	perNode := math.MaxInt32
	perNode++
	if _, err := RunArrow(tr, 0, Config{PerNode: perNode}); err == nil {
		t.Error("expected PerNode <= MaxInt32 error")
	}
}

// TestNodeStateSize pins a node's whole closed-loop state at 16 bytes,
// four to a cache line: the acquire latency keeps no issue time.
func TestNodeStateSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 16 {
		t.Errorf("node is %d bytes, want 16", got)
	}
}

// TestEventBudgetSaturates holds the divergence guard at the int64 wrap
// boundary of total·(8n+16): the last total that fits gets the exact
// budget, and one more, or a million nodes at PerNode 2·10⁶, saturates
// at MaxInt64 instead of wrapping negative (guard off) or to a small
// positive budget (a healthy run panics).
func TestEventBudgetSaturates(t *testing.T) {
	const n = 1_000_000
	per := int64(8*n + 16)
	edge := (math.MaxInt64 - 4096) / per
	cases := []struct {
		total int64
		n     int
		want  int64
	}{
		{100, 10, 100*96 + 4096},
		{edge, n, edge*per + 4096},
		{edge + 1, n, math.MaxInt64},
		{2_000_000 * n, n, math.MaxInt64},
		{math.MaxInt64, math.MaxInt32, math.MaxInt64},
	}
	for _, c := range cases {
		if got := eventBudget(c.total, c.n); got != c.want {
			t.Errorf("eventBudget(%d, %d) = %d, want %d", c.total, c.n, got, c.want)
		}
	}
}

func TestDirectoryDeterminism(t *testing.T) {
	tr := tree.BalancedBinary(15)
	a, err := RunArrow(tr, 0, Config{PerNode: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunArrow(tr, 0, Config{PerNode: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.ObjectHops != b.ObjectHops || a.AcquireLatency != b.AcquireLatency {
		t.Error("same-seed directory runs diverged")
	}
}

// TestDirectoryHoldTimeStretchesMakespan: a node keeps the object for
// holdTime per access and no two nodes hold it at once, so the run lasts
// at least one hold per acquisition, in both directories.
func TestDirectoryHoldTimeStretchesMakespan(t *testing.T) {
	for name, run := range map[string]func() (*Result, error){
		"arrow": func() (*Result, error) { return RunArrow(tree.BalancedBinary(8), 0, Config{PerNode: 5}) },
		"home":  func() (*Result, error) { return RunHome(graph.Grid(3, 3), 4, Config{PerNode: 5}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if min := sim.Time(res.Acquires) * holdTime; res.Makespan < min {
			t.Errorf("%s: makespan %d below %d acquisitions of hold %d", name, res.Makespan, res.Acquires, holdTime)
		}
	}
}

// directoryPins holds both directories' results under asynchronous
// latency and non-FIFO arbitration, where every seq-keyed draw depends on
// the order of the loop's pushes. The values are those of the separate
// arrow and home-based loops the shared one replaced, run at hold time
// 1; every field must stay bit-identical.
var directoryPins = []struct {
	name string
	arb  sim.Arbitration
	home bool
	want Result
}{
	{"arrow/lifo", sim.ArbLIFO, false, Result{N: 15, Acquires: 300, Makespan: 1736, AcquireLatency: 24179, FindHops: 557, ObjectHops: 557}},
	{"arrow/random", sim.ArbRandom, false, Result{N: 15, Acquires: 300, Makespan: 1717, AcquireLatency: 23894, FindHops: 557, ObjectHops: 557}},
	{"home/lifo", sim.ArbLIFO, true, Result{N: 16, Acquires: 320, Makespan: 3141, AcquireLatency: 47323, FindHops: 640, ObjectHops: 1280}},
	{"home/random", sim.ArbRandom, true, Result{N: 16, Acquires: 320, Makespan: 3216, AcquireLatency: 48548, FindHops: 640, ObjectHops: 1280}},
}

func TestDirectoryAsyncPins(t *testing.T) {
	for _, p := range directoryPins {
		t.Run(p.name, func(t *testing.T) {
			cfg := Config{PerNode: 20, ThinkTime: 3,
				Latency: sim.AsyncUniform(4), Arbitration: p.arb, Seed: 11}
			var got *Result
			var err error
			if p.home {
				got, err = RunHome(graph.Grid(4, 4), 5, cfg)
			} else {
				got, err = RunArrow(tree.BalancedBinary(15), 0, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if *got != p.want {
				t.Errorf("got %#v, want %#v", *got, p.want)
			}
		})
	}
}

// TestDirectoryStateIndependentOfPerNode holds both directories to
// O(n) state: a node has one request in flight, so twenty times the
// acquisitions per node may not cost more memory. Each measurement
// builds its own topology, so the graph and metric construction cancel.
func TestDirectoryStateIndependentOfPerNode(t *testing.T) {
	runs := []struct {
		name string
		run  func(perNode int) error
	}{
		{"arrow", func(perNode int) error {
			_, err := RunArrow(tree.BalancedBinary(256), 0, Config{PerNode: perNode})
			return err
		}},
		{"home", func(perNode int) error {
			_, err := RunHome(graph.Grid(16, 16), 0, Config{PerNode: perNode})
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			alloc := func(perNode int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := r.run(perNode); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			small, large := alloc(20), alloc(400)
			if large > small && large-small >= 256<<10 {
				t.Errorf("PerNode 400 allocates %d B, PerNode 20 %d B: state grows with PerNode", large, small)
			}
		})
	}
}

// TestAcquireLatencyNeedsNoIssueTime: AcquireLatency, kept as Σ arrival
// − Σ issue, equals the sum of per-acquire latencies that an observer
// keeping every node's issue time measures, over generated configs of
// both directories (FIFO, LIFO and random arbitration; synchronous,
// scaled and asynchronous latency). The observer wraps the run's own
// handlers, so it sees exactly the issues and arrivals the run makes.
func TestAcquireLatencyNeedsNoIssueTime(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		cfg := Config{
			PerNode:     1 + rng.Intn(10),
			ThinkTime:   sim.Time(rng.Intn(4)),
			Arbitration: sim.Arbitration(rng.Intn(3)),
			Seed:        seed,
		}
		switch rng.Intn(3) {
		case 1:
			cfg.Latency = sim.SynchronousScaled(int64(2 + rng.Intn(3)))
		case 2:
			cfg.Latency = sim.AsyncUniform(int64(1 + rng.Intn(5)))
		}
		g := graph.GNP(n, 0.3, seed)
		home := graph.NodeID(rng.Intn(n))
		tr, err := tree.BFS(g, home)
		if err != nil {
			t.Fatal(err)
		}
		arrowStep, err := arrow.NewTreeStepper(tr, home)
		if err != nil {
			t.Fatal(err)
		}
		homeStep, err := centralized.NewShardCenters(n, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			topo    sim.Topology
			step    shard.Stepper
			viaHome bool
		}{
			{"arrow", sim.TreeTopology{T: tr}, arrowStep, false},
			{"home", sim.NewMetricTopology(g), homeStep, true},
		} {
			d, s, err := newDir(c.topo, c.step, home, c.viaHome, cfg)
			if err != nil {
				t.Fatal(err)
			}
			issued := make([]sim.Time, n)
			var sum, acquires int64
			// observe charges an acquisition the wrapped step made: the
			// object is then held by d.to.
			observe := func(ctx *sim.Context, before int64) {
				if d.res.Acquires != before {
					acquires++
					sum += ctx.Now() - issued[d.to]
				}
			}
			s.SetTimerHandler(func(ctx *sim.Context, v graph.NodeID) {
				if d.to != v && d.nodes[v].remaining > 0 {
					issued[v] = ctx.Now()
				}
				before := d.res.Acquires
				d.timer(ctx, v)
				observe(ctx, before)
			})
			s.SetAllHandlers(func(ctx *sim.Context, at, from graph.NodeID, msg sim.Message) {
				before := d.res.Acquires
				d.handle(ctx, at, from, msg)
				observe(ctx, before)
			})
			s.Run()
			if want := int64(n * cfg.PerNode); d.res.Acquires != want || acquires != want {
				t.Fatalf("seed %d %s: %d acquires, observer saw %d, want %d", seed, c.name, d.res.Acquires, acquires, want)
			}
			if d.res.AcquireLatency != sum {
				t.Errorf("seed %d %s (n=%d %+v): AcquireLatency %d, observed per-acquire sum %d",
					seed, c.name, n, cfg, d.res.AcquireLatency, sum)
			}
		}
	}
}
