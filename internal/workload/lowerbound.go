package workload

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
)

// LowerBoundInstance is the recursive adversarial request set of
// Theorem 4.1, defined on the path v0..vD (D a power of two) with the
// initial root at v0. The construction aims at arrow sweeping the whole
// path once per level (cost about k·D) while an optimal offline order
// pays O(D). Measured, arrow's total latency stops near 2D: 1,024,
// 2,050, 2,080 and 2,108 at D = 1,024 and k = 2, 4, 6 and 8 (ROADMAP
// item 17 follows this up).
type LowerBoundInstance struct {
	// D is the path length (diameter of the spanning tree).
	D int
	// K is the recursion depth (the paper sets k ≈ log D / log log D).
	K int
	// Root is the initial queue tail, v0.
	Root graph.NodeID
	// Set is the generated request set.
	Set queuing.Set
}

// DefaultK returns the paper's choice k = ⌊log D / log log D⌋ rounded
// down to an even integer, and at least 2.
func DefaultK(d int) int {
	if d < 4 {
		return 2
	}
	logD := math.Log2(float64(d))
	k := int(logD / math.Log2(logD))
	if k%2 == 1 {
		k--
	}
	if k < 2 {
		k = 2
	}
	return k
}

// LowerBound generates the Theorem 4.1 instance for a path of length
// d = 2^logD with recursion depth k. Duplicate (node, time) pairs arising
// from overlapping recursion branches are emitted once. The construction:
//
//   - seed request (v_D, k) of "size" log2 D and direction +1;
//   - a request (v_i, t, s, dir) with t > 0 spawns (v_{i−dir·2^j}, t−1, j,
//     −dir) for j = 0..s−1;
//   - additionally v_0 and v_D issue requests at every time 0..k−1.
//
// logD outside [1, 24] or k < 1 is an error.
func LowerBound(logD, k int) (LowerBoundInstance, error) {
	if logD < 1 || logD > 24 {
		return LowerBoundInstance{}, fmt.Errorf("workload: logD=%d out of range [1,24]", logD)
	}
	if k < 1 {
		return LowerBoundInstance{}, fmt.Errorf("workload: k=%d, must be >= 1", k)
	}
	d := 1 << logD
	type frame struct {
		pos, t, size, dir int
	}
	seen := make(map[[2]int]bool)
	var reqs []queuing.Request
	emit := func(pos, t int) {
		if pos < 0 || pos > d {
			// The recursion is position-safe for the seed parameters the
			// paper uses; clamp defensively for exotic (logD, k) choices.
			return
		}
		key := [2]int{pos, t}
		if seen[key] {
			return
		}
		seen[key] = true
		reqs = append(reqs, queuing.Request{Node: graph.NodeID(pos), Time: sim.Time(t)})
	}
	stack := []frame{{pos: d, t: k, size: logD, dir: +1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		emit(f.pos, f.t)
		if f.t <= 0 {
			continue
		}
		for j := 0; j < f.size; j++ {
			stack = append(stack, frame{
				pos:  f.pos - f.dir*(1<<j),
				t:    f.t - 1,
				size: j,
				dir:  -f.dir,
			})
		}
	}
	for t := 0; t < k; t++ {
		emit(0, t)
		emit(d, t)
	}
	return LowerBoundInstance{
		D:    d,
		K:    k,
		Root: 0,
		Set:  queuing.NewSet(reqs),
	}, nil
}
