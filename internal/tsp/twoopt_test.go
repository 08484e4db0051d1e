package tsp

import (
	"math/rand"
	"slices"
	"testing"
)

// TwoOptPathOracle exports the oracle to the external test package,
// which checks it against the instances the experiments build.
var TwoOptPathOracle = twoOptPathOracle

// twoOptPathOracle is TwoOptPath as it was before prefix sums: every
// candidate re-sums its interior arcs both ways, O(n³) per pass. The
// prefix-sum version must return the identical order and cost.
func twoOptPathOracle(n int, c Cost) ([]int, int64) {
	order, _ := NearestNeighborPath(n, c)
	improved := true
	for pass := 0; improved && pass < 16; pass++ {
		improved = false
		for i := 1; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				// Reverse order[i..j]; delta for an open path.
				before := c(order[i-1], order[i])
				if j+1 < n {
					before += c(order[j], order[j+1])
				}
				after := c(order[i-1], order[j])
				if j+1 < n {
					after += c(order[i], order[j+1])
				}
				// Interior arcs change direction; with asymmetric costs we
				// must recompute them.
				var beforeIn, afterIn int64
				for k := i; k < j; k++ {
					beforeIn += c(order[k], order[k+1])
					afterIn += c(order[k+1], order[k])
				}
				if after+afterIn < before+beforeIn {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						order[a], order[b] = order[b], order[a]
					}
					improved = true
				}
			}
		}
	}
	return order, PathCost(order, c)
}

// matrixCost serves c(i, j) from a row-major n×n matrix.
func matrixCost(n int, m []int64) Cost {
	return func(i, j int) int64 { return m[i*n+j] }
}

// randAsym is a random asymmetric n×n cost matrix with entries in
// [0, limit).
func randAsym(n int, limit int64, seed int64) Cost {
	rng := rand.New(rand.NewSource(seed))
	m := make([]int64, n*n)
	for i := range m {
		m[i] = rng.Int63n(limit)
	}
	return matrixCost(n, m)
}

// sameAsOracle fails unless TwoOptPath and the oracle agree on c, and
// reports whether 2-opt moved the path off its nearest-neighbour start.
func sameAsOracle(t *testing.T, n int, c Cost) bool {
	t.Helper()
	order, cost := TwoOptPath(n, c)
	wantOrder, wantCost := twoOptPathOracle(n, c)
	if cost != wantCost || !slices.Equal(order, wantOrder) {
		t.Fatalf("n=%d: TwoOptPath = %v (cost %d), oracle %v (cost %d)", n, order, cost, wantOrder, wantCost)
	}
	nn, _ := NearestNeighborPath(n, c)
	return !slices.Equal(order, nn)
}

// TestTwoOptPathMatchesOracle runs both on random asymmetric matrices
// up to n = 200: entries below 10, so equal-cost moves are common and
// the strict improvement test decides; below 10⁶; and near 2⁶², so the
// sums wrap and the prefix differences must wrap back exactly.
func TestTwoOptPathMatchesOracle(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 17, 24, 33, 50, 77, 120}
	if !testing.Short() {
		sizes = append(sizes, 200)
	}
	moved := 0
	for _, n := range sizes {
		for s, limit := range []int64{10, 1_000_000, 1 << 62} {
			if sameAsOracle(t, n, randAsym(n, limit, int64(100*n+s))) {
				moved++
			}
		}
	}
	if moved < len(sizes) {
		t.Errorf("2-opt improved only %d of %d instances: too few reversals to test the prefix rebuild", moved, 3*len(sizes))
	}
}

// FuzzTwoOptMatchesOracle: TwoOptPath returns the oracle's order and
// cost on any asymmetric matrix of up to 12 points. The cost of arc
// (i, j) is byte i·n+j of costs, cycled (zero when costs is empty):
// byte-sized costs tie often. The seeds under testdata/fuzz cover
// ties, a path already optimal, and matrices that take several passes.
func FuzzTwoOptMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint8, costs []byte) {
		n := int(size) % 13
		m := make([]int64, n*n)
		for i := range m {
			if len(costs) > 0 {
				m[i] = int64(costs[i%len(costs)])
			}
		}
		sameAsOracle(t, n, matrixCost(n, m))
	})
}
