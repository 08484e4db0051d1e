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

// FuzzOptimalPathMatchesBruteForce holds Held–Karp's path and tour to an
// exhaustive search over every visiting order of up to 8 points. The
// costs are the L1 metric of random plane points (seed), or, when
// asymmetric, a random matrix with entries below 8, where ties are
// common. OptimalPath's order must cost what it reports. The seed corpus
// holds eight 5-point metrics and an asymmetric instance of every size.
func FuzzOptimalPathMatchesBruteForce(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(4), false)
	}
	for size := uint8(0); size < 8; size++ {
		f.Add(int64(size), size, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8, asymmetric bool) {
		n := 1 + int(size)%8
		c := randMetric(n, seed)
		if asymmetric {
			c = randAsym(n, 8, seed)
		}
		path, tour := int64(math.MaxInt64), int64(math.MaxInt64)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				cost := PathCost(perm, c)
				path = min(path, cost)
				tour = min(tour, cost+c(perm[n-1], 0))
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(1)
		order, hk, err := OptimalPath(n, c)
		if err != nil {
			t.Fatal(err)
		}
		if hk != path {
			t.Errorf("n=%d: Held-Karp path %d != brute force %d", n, hk, path)
		}
		if len(order) != n || order[0] != 0 || PathCost(order, c) != hk {
			t.Errorf("n=%d: order %v does not cost the reported %d", n, order, hk)
		}
		if n == 1 {
			tour = 0
		}
		if got, err := OptimalTour(n, c); err != nil || got != tour {
			t.Errorf("n=%d: Held-Karp tour %d (%v) != brute force %d", n, got, err, tour)
		}
	})
}

// TestOptimalPathAllocs pins Held–Karp's allocations at 12 points to its
// four flat tables — the cost matrix, dp, par and the order — however
// many subsets the table has.
func TestOptimalPathAllocs(t *testing.T) {
	c := randAsym(12, 100, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := OptimalPath(12, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("OptimalPath at 12 points made %v allocations, want at most 4", allocs)
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

// NearestNeighborTies returns every NN path obtainable under some
// tie-breaking rule... exploring all ties is exponential, so the search
// is capped at maxPaths results; the bool reports whether the enumeration
// was exhaustive. Used by tests to validate Lemma 3.8 when simultaneous
// requests make the NN order non-unique.
func NearestNeighborTies(n int, c Cost, maxPaths int) ([][]int, bool) {
	var out [][]int
	visited := make([]bool, n)
	order := make([]int, 0, n)
	exhaustive := true
	var rec func(cur int)
	rec = func(cur int) {
		if len(out) >= maxPaths {
			exhaustive = false
			return
		}
		if len(order) == n {
			out = append(out, append([]int(nil), order...))
			return
		}
		var bestCost int64 = math.MaxInt64
		for j := 0; j < n; j++ {
			if !visited[j] {
				if cc := c(cur, j); cc < bestCost {
					bestCost = cc
				}
			}
		}
		for j := 0; j < n; j++ {
			if !visited[j] && c(cur, j) == bestCost {
				visited[j] = true
				order = append(order, j)
				rec(j)
				order = order[:len(order)-1]
				visited[j] = false
				if len(out) >= maxPaths {
					return
				}
			}
		}
	}
	visited[0] = true
	order = append(order, 0)
	rec(0)
	return out, exhaustive
}
