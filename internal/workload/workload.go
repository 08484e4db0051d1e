// Package workload generates the request sets driving the experiments:
// the concurrency regimes discussed in the paper (one-shot simultaneous
// requests, sequential well-spaced requests, dynamic arrivals) and the
// adversarial recursive instance of Theorem 4.1.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/queuing"
	"repro/internal/sim"
)

// require panics with a descriptive workload error unless cond holds.
// The generators validate their inputs eagerly so a bad parameter fails
// with a named constraint instead of surfacing later as an opaque rand
// panic (e.g. rand.Int63n(0)) or a silently empty request set.
func require(cond bool, constraint string) {
	if !cond {
		panic(fmt.Sprintf("workload: %s", constraint))
	}
}

// OneShot returns k simultaneous requests (all at t = 0) at k distinct
// random nodes of an n-node network — the setting of the PODC'01
// precursor paper [10]. k must be at most n.
func OneShot(n, k int, seed int64) queuing.Set {
	require(n >= 1, "OneShot needs n >= 1")
	require(k >= 0, "OneShot needs k >= 0")
	require(k <= n, "OneShot needs k <= n (distinct nodes)")
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	reqs := make([]queuing.Request, k)
	for i := 0; i < k; i++ {
		reqs[i] = queuing.Request{Node: graph.NodeID(perm[i]), Time: 0}
	}
	return queuing.NewSet(reqs)
}

// Sequential returns count requests at random nodes spaced gap time units
// apart. With gap > 2D no two requests are concurrently active, which is
// the sequential regime of Demmer–Herlihy: per-operation cost <= D and
// competitive ratio <= s.
func Sequential(n, count int, gap sim.Time, seed int64) queuing.Set {
	require(n >= 1, "Sequential needs n >= 1")
	require(count >= 0, "Sequential needs count >= 0")
	require(gap >= 0, "Sequential needs gap >= 0")
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]queuing.Request, count)
	for i := range reqs {
		reqs[i] = queuing.Request{
			Node: graph.NodeID(rng.Intn(n)),
			Time: sim.Time(i) * gap,
		}
	}
	return queuing.NewSet(reqs)
}

// Poisson returns requests arriving as a Poisson process of the given
// rate (expected requests per time unit) over [0, horizon), each at a
// uniformly random node. The returned set size is random; use the seed to
// reproduce it.
func Poisson(n int, rate float64, horizon sim.Time, seed int64) queuing.Set {
	require(n >= 1, "Poisson needs n >= 1")
	require(rate > 0, "Poisson needs rate > 0")
	require(horizon >= 0, "Poisson needs horizon >= 0")
	rng := rand.New(rand.NewSource(seed))
	var reqs []queuing.Request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if sim.Time(t) >= horizon {
			break
		}
		reqs = append(reqs, queuing.Request{
			Node: graph.NodeID(rng.Intn(n)),
			Time: sim.Time(t),
		})
	}
	return queuing.NewSet(reqs)
}

// Bursty returns `bursts` bursts of burstSize near-simultaneous requests
// (random nodes, jitter in [0, burstSize)), with consecutive bursts
// separated by burstGap. High-contention phases alternating with silence —
// the regime Lemma 3.11's time-shifting argument addresses.
func Bursty(n, burstSize, bursts int, burstGap sim.Time, seed int64) queuing.Set {
	require(n >= 1, "Bursty needs n >= 1")
	require(burstSize >= 1, "Bursty needs burstSize >= 1")
	require(bursts >= 0, "Bursty needs bursts >= 0")
	require(burstGap >= 0, "Bursty needs burstGap >= 0")
	rng := rand.New(rand.NewSource(seed))
	var reqs []queuing.Request
	for b := 0; b < bursts; b++ {
		base := sim.Time(b) * burstGap
		for i := 0; i < burstSize; i++ {
			reqs = append(reqs, queuing.Request{
				Node: graph.NodeID(rng.Intn(n)),
				Time: base + sim.Time(rng.Intn(burstSize)),
			})
		}
	}
	return queuing.NewSet(reqs)
}

// Hotspot returns count requests over [0, horizon) where a fraction
// hotFrac of requests hit a single hot node and the rest are uniform.
// Models contended shared objects (e.g. a hot lock).
func Hotspot(n, count int, hotFrac float64, horizon sim.Time, seed int64) queuing.Set {
	require(n >= 1, "Hotspot needs n >= 1")
	require(count >= 0, "Hotspot needs count >= 0")
	require(hotFrac >= 0 && hotFrac <= 1, "Hotspot needs hotFrac in [0,1]")
	// horizon bounds the rand.Int63n draw below; 0 or negative would
	// panic inside the RNG with no hint at which parameter was wrong.
	require(horizon >= 1, "Hotspot needs horizon >= 1")
	rng := rand.New(rand.NewSource(seed))
	hot := graph.NodeID(rng.Intn(n))
	reqs := make([]queuing.Request, count)
	for i := range reqs {
		node := hot
		if rng.Float64() >= hotFrac {
			node = graph.NodeID(rng.Intn(n))
		}
		reqs[i] = queuing.Request{Node: node, Time: sim.Time(rng.Int63n(int64(horizon)))}
	}
	return queuing.NewSet(reqs)
}

// Zipf is a deterministic Zipf-law sampler over k objects: object o
// (0-based) is drawn with probability proportional to (o+1)^-skew, so
// low-numbered objects are the hot ones. skew = 0 degenerates to the
// uniform distribution; skew around 1.1 is the classic hot-object regime
// where the head of the popularity law dominates.
//
// Sampling is counter-based rather than stream-based: Draw hashes a
// (node, request-index) pair through the simulator's splitmix mixer and
// inverts the CDF on the resulting uniform variate. No shared RNG stream
// is consumed, so a node's object IDs do not depend on how its requests
// interleave with every other node's.
type Zipf struct {
	k int
	// cum is the unnormalized CDF: cum[o] = Σ_{j<=o} (j+1)^-skew.
	// Inverting it directly (scaling the uniform variate by the total
	// instead of normalizing each weight) saves k divisions and keeps
	// the table exactly reproducible.
	cum []float64
	// guide[j] is the first object whose cumulative weight reaches j/G of
	// the total, G = len(guide)-1 the power of two in [8k, 16k): Sample
	// starts its scan there instead of bisecting cum.
	guide []int32
}

// NewZipf builds the sampler's cumulative popularity table and the guide
// table over it; O(k) space.
func NewZipf(k int, skew float64) *Zipf {
	require(k >= 1, "NewZipf needs k >= 1")
	require(skew >= 0, "NewZipf needs skew >= 0")
	g := 8
	for g < 8*k {
		g *= 2
	}
	z := &Zipf{k: k, cum: make([]float64, k), guide: make([]int32, g+1)}
	total := 0.0
	for o := 0; o < k; o++ {
		w := 1.0
		if skew != 0 {
			w = math.Pow(float64(o+1), -skew)
		}
		total += w
		z.cum[o] = total
	}
	o := 0
	for j := range z.guide {
		z.guide[j] = z.scan(o, float64(j)/float64(g)*total)
		o = int(z.guide[j])
	}
	return z
}

// scan returns the first object at or after o whose cumulative weight
// reaches x, or the last object if none does.
func (z *Zipf) scan(o int, x float64) int32 {
	for o < z.k-1 && z.cum[o] < x {
		o++
	}
	return int32(o)
}

// K returns the object count.
func (z *Zipf) K() int { return z.k }

// Sample maps a uniform variate u in [0,1] to an object by inverting the
// cumulative popularity table: the result is
// sort.SearchFloat64s(cum, u*total), with the last object owning the
// boundary u*total can round up to. j = floor(u·G) is exact (G is a power
// of two), so j/G <= u and, rounding being monotone, j/G*total <=
// u*total: the answer is never before guide[j], and a cell of the guide
// spans k/G <= 1/8 objects on average, so the scan is O(1) expected.
func (z *Zipf) Sample(u float64) int32 {
	return z.scan(int(z.guide[int(u*float64(len(z.guide)-1))]), u*z.cum[z.k-1])
}

// Draw returns the object of node's req-th request (req counts from 0).
// The draw is a pure function of (seed, node, req): two splitmix steps
// decorrelate the pair into an independent uniform variate, so adjacent
// nodes and consecutive requests land on unrelated objects.
func (z *Zipf) Draw(seed int64, node graph.NodeID, req int64) int32 {
	if z.k == 1 {
		return 0
	}
	h := sim.DeriveSeed(sim.DeriveSeed(seed, int(node)), int(req))
	// Top 53 bits → uniform in [0,1) at full float64 resolution.
	u := float64(uint64(h)>>11) * (1.0 / (1 << 53))
	return z.Sample(u)
}
