// Package tsp provides the travelling-salesperson machinery the paper's
// analysis relies on: the nearest-neighbour heuristic (which characterizes
// arrow's queuing order, Lemma 3.8), an exact Held–Karp solver used as
// ground truth on small instances, a 2-opt improvement of the NN path, and
// the MST weight behind opt's ManhattanMST/12 — an uncertified estimate
// of the optimum, not a lower bound (see package opt).
//
// All functions operate over an abstract pairwise cost on points 0..n-1
// where point 0 is the fixed start (the virtual root request). Costs may
// be asymmetric — cT is — unless a function documents otherwise.
package tsp

import (
	"fmt"
	"math"
)

// Cost is a pairwise cost function over points 0..n-1. c(i,j) is the cost
// of visiting j immediately after i.
type Cost func(i, j int) int64

// NearestNeighborPath computes the NN path over n points starting at
// point 0: repeatedly move to an unvisited point of minimum cost from the
// current point, ties broken by lowest index (deterministic). It returns
// the visit order (starting with 0) and the total path cost.
//
// This mirrors eqs. (6)–(7): arrow's queuing order is exactly this path
// under cT with point 0 = the root request.
func NearestNeighborPath(n int, c Cost) ([]int, int64) {
	if n <= 0 {
		return nil, 0
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := 0
	visited[0] = true
	order = append(order, 0)
	var total int64
	for len(order) < n {
		best := -1
		var bestCost int64 = math.MaxInt64
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			if cc := c(cur, j); cc < bestCost {
				bestCost = cc
				best = j
			}
		}
		visited[best] = true
		order = append(order, best)
		total += bestCost
		cur = best
	}
	return order, total
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

// MaxExactN bounds the instance size accepted by the exact solvers
// (Held–Karp uses O(2^n · n) memory).
const MaxExactN = 20

// OptimalPath solves the open TSP path exactly with Held–Karp dynamic
// programming: minimum-cost path starting at point 0 and visiting all n
// points. Cost may be asymmetric. n must be at most MaxExactN.
func OptimalPath(n int, c Cost) ([]int, int64, error) {
	return heldKarp(n, c, false)
}

// OptimalTour solves the closed TSP tour exactly (returns to point 0).
func OptimalTour(n int, c Cost) (int64, error) {
	_, cost, err := heldKarp(n, c, true)
	return cost, err
}

// heldKarp is the one Held–Karp table behind OptimalPath and OptimalTour:
// the cheapest path from point 0 through every point, with the closing
// edge back to 0 charged in the final minimum when closed. It returns
// the visit order starting at 0 and the cost.
func heldKarp(n int, c Cost, closed bool) ([]int, int64, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	if n > MaxExactN {
		return nil, 0, fmt.Errorf("tsp: exact solver limited to %d points, got %d", MaxExactN, n)
	}
	if n == 1 {
		return []int{0}, 0, nil
	}
	m := n - 1 // points 1..n-1 get mask bits 0..m-1
	size := 1 << m
	const inf = int64(math.MaxInt64 / 4)
	// dp[mask][j]: min cost of a path 0 -> ... -> (j+1) visiting exactly
	// the points of mask (bit i = point i+1), ending at point j+1.
	dp := make([][]int64, size)
	par := make([][]int8, size)
	for mask := 1; mask < size; mask++ {
		dp[mask] = make([]int64, m)
		par[mask] = make([]int8, m)
		for j := range dp[mask] {
			dp[mask][j] = inf
			par[mask][j] = -1
		}
	}
	for j := 0; j < m; j++ {
		dp[1<<j][j] = c(0, j+1)
	}
	for mask := 1; mask < size; mask++ {
		for j := 0; j < m; j++ {
			if mask&(1<<j) == 0 || dp[mask][j] >= inf {
				continue
			}
			base := dp[mask][j]
			for k := 0; k < m; k++ {
				if mask&(1<<k) != 0 {
					continue
				}
				nm := mask | 1<<k
				if cand := base + c(j+1, k+1); cand < dp[nm][k] {
					dp[nm][k] = cand
					par[nm][k] = int8(j)
				}
			}
		}
	}
	full := size - 1
	bestEnd, bestCost := -1, inf
	for j := 0; j < m; j++ {
		if dp[full][j] >= inf {
			continue
		}
		cost := dp[full][j]
		if closed {
			cost += c(j+1, 0)
		}
		if cost < bestCost {
			bestCost, bestEnd = cost, j
		}
	}
	order := make([]int, 0, n)
	mask, j := full, bestEnd
	for j >= 0 {
		order = append(order, j+1)
		pj := par[mask][j]
		mask ^= 1 << j
		j = int(pj)
	}
	order = append(order, 0)
	for i, k := 0, len(order)-1; i < k; i, k = i+1, k-1 {
		order[i], order[k] = order[k], order[i]
	}
	return order, bestCost, nil
}

// PathCost sums c over consecutive pairs of order.
func PathCost(order []int, c Cost) int64 {
	var total int64
	for i := 1; i < len(order); i++ {
		total += c(order[i-1], order[i])
	}
	return total
}

// MSTWeight returns the weight of a minimum spanning tree over n points
// under the symmetric cost c (Prim, O(n^2)). Any path visiting all points
// weighs at least this, which is the bound Lemma 3.16 exploits for the
// Manhattan metric.
func MSTWeight(n int, c Cost) int64 {
	if n <= 1 {
		return 0
	}
	const inf = int64(math.MaxInt64 / 4)
	best := make([]int64, n)
	in := make([]bool, n)
	for i := range best {
		best[i] = inf
	}
	best[0] = 0
	var total int64
	for iter := 0; iter < n; iter++ {
		u, ub := -1, inf
		for v := 0; v < n; v++ {
			if !in[v] && best[v] < ub {
				ub = best[v]
				u = v
			}
		}
		in[u] = true
		total += ub
		for v := 0; v < n; v++ {
			if !in[v] {
				if cc := c(u, v); cc < best[v] {
					best[v] = cc
				}
			}
		}
	}
	return total
}

// TwoOptPath improves the nearest-neighbour path from point 0 by 2-opt:
// passes over every segment reversal, each taken when it lowers the
// path's cost under c (asymmetric costs included), until a pass improves
// nothing or 16 passes have run. A reversal turns its interior arcs
// around, so each candidate needs the segment's cost walked both ways:
// prefix sums of the path's arcs forward and backward give both as two
// differences, and an accepted reversal rebuilds them from its first
// arc on. A pass is O(n²) plus O(n) per reversal taken. It produces
// achievable orders against which arrow is compared, with no
// approximation guarantee. Returns the order starting at 0 and its cost
// under c.
func TwoOptPath(n int, c Cost) ([]int, int64) {
	order, _ := NearestNeighborPath(n, c)
	// fwd[k] sums the path's first k arcs as walked, bwd[k] the same
	// arcs walked backwards: segment order[i..j] costs fwd[j]-fwd[i]
	// forward and bwd[j]-bwd[i] reversed. Integer wraparound cancels in
	// the differences, so they equal the arc-by-arc sums exactly.
	fwd, bwd := make([]int64, n), make([]int64, n)
	sums := func(from int) {
		for k := from; k+1 < n; k++ {
			fwd[k+1] = fwd[k] + c(order[k], order[k+1])
			bwd[k+1] = bwd[k] + c(order[k+1], order[k])
		}
	}
	sums(0)
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
				beforeIn, afterIn := fwd[j]-fwd[i], bwd[j]-bwd[i]
				if after+afterIn < before+beforeIn {
					for a, b := i, j; a < b; a, b = a+1, b-1 {
						order[a], order[b] = order[b], order[a]
					}
					sums(i - 1)
					improved = true
				}
			}
		}
	}
	return order, PathCost(order, c)
}
