package directory

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
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

func TestDirectoryHoldTimeStretchesMakespan(t *testing.T) {
	tr := tree.BalancedBinary(8)
	fast, err := RunArrow(tr, 0, Config{PerNode: 5, HoldTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunArrow(tr, 0, Config{PerNode: 5, HoldTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= fast.Makespan {
		t.Errorf("hold time 10 makespan %d not above hold time 1 makespan %d",
			slow.Makespan, fast.Makespan)
	}
}

// directoryPins holds both directories' results under asynchronous
// latency and non-FIFO arbitration, where every seq-keyed draw depends on
// the order of the loop's pushes. The values are those of the separate
// arrow and home-based loops the shared one replaced; every field must
// stay bit-identical.
var directoryPins = []struct {
	name string
	arb  sim.Arbitration
	home bool
	want Result
}{
	{"arrow/lifo", sim.ArbLIFO, false, Result{N: 15, Acquires: 300, Makespan: 2012, AcquireLatency: 27914, FindHops: 557, ObjectHops: 557}},
	{"arrow/random", sim.ArbRandom, false, Result{N: 15, Acquires: 300, Makespan: 1998, AcquireLatency: 27704, FindHops: 557, ObjectHops: 557}},
	{"home/lifo", sim.ArbLIFO, true, Result{N: 16, Acquires: 320, Makespan: 3485, AcquireLatency: 52453, FindHops: 640, ObjectHops: 1280}},
	{"home/random", sim.ArbRandom, true, Result{N: 16, Acquires: 320, Makespan: 3579, AcquireLatency: 53974, FindHops: 640, ObjectHops: 1280}},
}

func TestDirectoryAsyncPins(t *testing.T) {
	for _, p := range directoryPins {
		t.Run(p.name, func(t *testing.T) {
			cfg := Config{PerNode: 20, HoldTime: 2, ThinkTime: 3,
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
