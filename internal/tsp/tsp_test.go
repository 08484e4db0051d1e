package tsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// lineCost places points on a line at the given coordinates.
func lineCost(coords []int64) Cost {
	return func(i, j int) int64 {
		d := coords[i] - coords[j]
		if d < 0 {
			d = -d
		}
		return d
	}
}

func randMetric(n int, seed int64) Cost {
	// Random symmetric metric via random points in the plane (L1).
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(100))
		ys[i] = int64(rng.Intn(100))
	}
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	return func(i, j int) int64 { return abs(xs[i]-xs[j]) + abs(ys[i]-ys[j]) }
}

func TestNearestNeighborLine(t *testing.T) {
	// Points 0, 1, 2, 10: NN from 0 sweeps right.
	c := lineCost([]int64{0, 1, 2, 10})
	order, cost := NearestNeighborPath(4, c)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("NN order %v, want %v", order, want)
		}
	}
	if cost != 10 {
		t.Errorf("NN cost %d, want 10", cost)
	}
}

func TestNearestNeighborDeterministicTieBreak(t *testing.T) {
	// Two equidistant choices: lowest index wins.
	c := lineCost([]int64{0, 1, -1})
	order, _ := NearestNeighborPath(3, c)
	if order[1] != 1 {
		t.Errorf("tie should pick lower index; got %v", order)
	}
}

func TestNearestNeighborEmptyAndSingle(t *testing.T) {
	if o, c := NearestNeighborPath(0, nil); o != nil || c != 0 {
		t.Error("empty instance should be trivial")
	}
	o, c := NearestNeighborPath(1, lineCost([]int64{5}))
	if len(o) != 1 || o[0] != 0 || c != 0 {
		t.Error("single point should be trivial")
	}
}

func TestNearestNeighborTiesEnumeration(t *testing.T) {
	// Symmetric instance: 0 at origin, 1 and 2 both at distance 1,
	// distance between 1 and 2 is 2. Two NN paths exist.
	c := lineCost([]int64{0, 1, -1})
	paths, exhaustive := NearestNeighborTies(3, c, 10)
	if !exhaustive {
		t.Fatal("tiny instance should be exhaustive")
	}
	if len(paths) != 2 {
		t.Fatalf("expected 2 NN paths, got %d", len(paths))
	}
	cap1, _ := NearestNeighborTies(3, c, 1)
	if len(cap1) != 1 {
		t.Error("cap not respected")
	}
}

func TestOptimalPathKnownInstance(t *testing.T) {
	// Points on a line: 0, 10, 1, 2. Optimal path from 0 visits 1,2 then 10.
	c := lineCost([]int64{0, 10, 1, 2})
	order, cost, err := OptimalPath(4, c)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 10 {
		t.Errorf("optimal cost %d, want 10", cost)
	}
	if order[0] != 0 {
		t.Errorf("path must start at 0: %v", order)
	}
}

func TestOptimalPathRejectsLarge(t *testing.T) {
	if _, _, err := OptimalPath(MaxExactN+1, func(i, j int) int64 { return 1 }); err == nil {
		t.Error("expected size error")
	}
	if _, err := OptimalTour(MaxExactN+1, func(i, j int) int64 { return 1 }); err == nil {
		t.Error("expected size error")
	}
}

func TestOptimalPathTrivialSizes(t *testing.T) {
	if o, c, err := OptimalPath(1, nil); err != nil || c != 0 || len(o) != 1 {
		t.Error("singleton path wrong")
	}
	if _, c, err := OptimalPath(2, lineCost([]int64{0, 7})); err != nil || c != 7 {
		t.Error("two-point path wrong")
	}
	if c, err := OptimalTour(2, lineCost([]int64{0, 7})); err != nil || c != 14 {
		t.Errorf("two-point tour = %d, want 14", c)
	}
}

func TestOptimalPathVisitsAll(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		n := 5 + int(seed)
		if n > 10 {
			n = 10
		}
		c := randMetric(n, seed)
		order, cost, err := OptimalPath(n, c)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for _, p := range order {
			if seen[p] {
				t.Fatalf("seed %d: point %d visited twice", seed, p)
			}
			seen[p] = true
		}
		if PathCost(order, c) != cost {
			t.Fatalf("seed %d: reported cost %d != recomputed %d", seed, cost, PathCost(order, c))
		}
	}
}

func TestOptimalBeatsNN(t *testing.T) {
	prop := func(seed int64) bool {
		n := 4 + int(seed%8+8)%8
		c := randMetric(n, seed)
		_, nn := NearestNeighborPath(n, c)
		_, opt, err := OptimalPath(n, c)
		if err != nil {
			return false
		}
		return opt <= nn
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOptimalPathBruteForceCrossCheck(t *testing.T) {
	// Exhaustive permutation check on tiny instances.
	for seed := int64(0); seed < 8; seed++ {
		n := 5
		c := randMetric(n, seed)
		_, hk, err := OptimalPath(n, c)
		if err != nil {
			t.Fatal(err)
		}
		best := int64(math.MaxInt64)
		perm := []int{1, 2, 3, 4}
		var rec func(k int)
		rec = func(k int) {
			if k == len(perm) {
				cost := c(0, perm[0])
				for i := 1; i < len(perm); i++ {
					cost += c(perm[i-1], perm[i])
				}
				if cost < best {
					best = cost
				}
				return
			}
			for i := k; i < len(perm); i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if hk != best {
			t.Errorf("seed %d: Held-Karp %d != brute force %d", seed, hk, best)
		}
	}
}

func TestOptimalTourAtLeastPath(t *testing.T) {
	prop := func(seed int64) bool {
		n := 4 + int(seed%6+6)%6
		c := randMetric(n, seed)
		_, p, err := OptimalPath(n, c)
		if err != nil {
			return false
		}
		tour, err := OptimalTour(n, c)
		if err != nil {
			return false
		}
		return tour >= p
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMSTWeightLowerBoundsPath(t *testing.T) {
	// Any Hamiltonian path weighs at least the MST.
	prop := func(seed int64) bool {
		n := 4 + int(seed%8+8)%8
		c := randMetric(n, seed)
		mst := MSTWeight(n, c)
		_, opt, err := OptimalPath(n, c)
		if err != nil {
			return false
		}
		return mst <= opt
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMSTWeightKnown(t *testing.T) {
	// Line 0-1-2-3 with unit gaps: MST weight 3.
	if w := MSTWeight(4, lineCost([]int64{0, 1, 2, 3})); w != 3 {
		t.Errorf("MST weight = %d, want 3", w)
	}
	if w := MSTWeight(1, nil); w != 0 {
		t.Errorf("singleton MST = %d", w)
	}
}

func TestTwoOptPathImprovesOrMatchesNN(t *testing.T) {
	prop := func(seed int64) bool {
		n := 5 + int(seed%8+8)%8
		c := randMetric(n, seed)
		_, nn := NearestNeighborPath(n, c)
		order, cost := TwoOptPath(n, c)
		if len(order) != n || order[0] != 0 {
			return false
		}
		seen := make([]bool, n)
		for _, p := range order {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return cost <= nn
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNearestNeighborApproximationTheorem318 validates the paper's
// generalized NN bound: CN <= 3/2·ceil(log2(DNN/dNN))·CO (stated for
// tours; paths add at most a factor 2). We verify the measured ratio
// never exceeds the bound on random instances where dn <= do pointwise.
func TestNearestNeighborApproximationTheorem318(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		n := 6 + int(seed%7)
		do := randMetric(n, seed)
		// dn: a random "shrunken" cost below the metric (like cT <= cM).
		rng := rand.New(rand.NewSource(seed * 31))
		shrink := make([]int64, n*n)
		for i := range shrink {
			shrink[i] = int64(rng.Intn(3))
		}
		dn := func(i, j int) int64 {
			v := do(i, j) - shrink[i*n+j]
			if v < 0 {
				v = 0
			}
			return v
		}
		_, cn := NearestNeighborPath(n, dn)
		co, err := OptimalTour(n, do)
		if err != nil {
			t.Fatal(err)
		}
		if co == 0 {
			continue
		}
		// Edge scale range on the NN path under dn.
		order, _ := NearestNeighborPath(n, dn)
		var dmin, dmax int64 = math.MaxInt64, 1
		for i := 1; i < n; i++ {
			c := dn(order[i-1], order[i])
			if c > 0 {
				if c < dmin {
					dmin = c
				}
				if c > dmax {
					dmax = c
				}
			}
		}
		if dmin == math.MaxInt64 {
			continue
		}
		classes := math.Ceil(math.Log2(float64(dmax)/float64(dmin))) + 1
		bound := 1.5 * classes * float64(co)
		if float64(cn) > bound+1e-9 {
			t.Errorf("seed %d: NN cost %d exceeds Theorem 3.18 bound %.1f (opt %d, classes %.0f)",
				seed, cn, bound, co, classes)
		}
	}
}
