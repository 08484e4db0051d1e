package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
)

// TestZipfSampleBoundaries pins the inverse-CDF edges: u = 0 lands on
// the first object and the u→1 boundary (where u·total can round to
// exactly total) lands on the last, never out of range.
func TestZipfSampleBoundaries(t *testing.T) {
	for _, skew := range []float64{0, 0.8, 1.1, 2} {
		z := NewZipf(16, skew)
		if o := z.Sample(0); o != 0 {
			t.Errorf("skew %g: Sample(0) = %d, want 0", skew, o)
		}
		if o := z.Sample(math.Nextafter(1, 0)); o != 15 {
			t.Errorf("skew %g: Sample(1-ε) = %d, want 15", skew, o)
		}
		if z.K() != 16 {
			t.Errorf("K() = %d, want 16", z.K())
		}
	}
}

// TestZipfUniformAtZeroSkew: skew 0 degenerates to the uniform law —
// each object's share of a fine sweep of the unit interval is 1/k.
func TestZipfUniformAtZeroSkew(t *testing.T) {
	const k, samples = 8, 8000
	z := NewZipf(k, 0)
	counts := make([]int, k)
	for i := 0; i < samples; i++ {
		counts[z.Sample(float64(i)/samples)]++
	}
	// Float rounding at a bucket boundary can shift a single sweep point,
	// so allow one sample of slack per object.
	for o, c := range counts {
		if d := c - samples/k; d < -1 || d > 1 {
			t.Errorf("object %d drew %d of %d uniform samples, want %d±1", o, c, samples, samples/k)
		}
	}
}

// TestZipfSkewOrdersPopularity: under positive skew the empirical
// popularity is non-increasing in object ID, and the head object beats
// the uniform share decisively.
func TestZipfSkewOrdersPopularity(t *testing.T) {
	const k = 32
	const nodes, perNode = 16, 500
	z := NewZipf(k, 1.1)
	counts := make([]int, k)
	for v := 0; v < nodes; v++ {
		for r := 0; r < perNode; r++ {
			counts[z.Draw(3, graph.NodeID(v), int64(r))]++
		}
	}
	total := nodes * perNode
	if counts[0]*k < 2*total {
		t.Errorf("head object drew %d of %d — not even 2x the uniform share under skew 1.1", counts[0], total)
	}
	// The exact law is monotone; empirical counts in the head must be
	// too (the tail's tiny counts are allowed to tie).
	for o := 1; o < 8; o++ {
		if counts[o] > counts[o-1] {
			t.Errorf("popularity not monotone at head: counts[%d]=%d > counts[%d]=%d",
				o, counts[o], o-1, counts[o-1])
		}
	}
}

// TestZipfDrawDeterministic: Draw is a pure function of
// (seed, node, req) — the counter-based property the concurrent shard
// driver relies on for worker-count independence — and distinct seeds
// decorrelate the streams.
func TestZipfDrawDeterministic(t *testing.T) {
	z := NewZipf(64, 1.1)
	same := true
	for v := 0; v < 8; v++ {
		for r := 0; r < 32; r++ {
			a := z.Draw(11, graph.NodeID(v), int64(r))
			if b := z.Draw(11, graph.NodeID(v), int64(r)); a != b {
				t.Fatalf("Draw(11, %d, %d) unstable: %d then %d", v, r, a, b)
			}
			if a != z.Draw(12, graph.NodeID(v), int64(r)) {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 11 and 12 drew identical object streams")
	}
}

// TestZipfSingleObject: k = 1 short-circuits to object 0.
func TestZipfSingleObject(t *testing.T) {
	z := NewZipf(1, 1.1)
	for r := int64(0); r < 10; r++ {
		if o := z.Draw(5, 3, r); o != 0 {
			t.Fatalf("Draw with k=1 returned %d", o)
		}
	}
}

// TestZipfRejectsBadParameters: the constructor refuses k < 1 and
// negative skew.
func TestZipfRejectsBadParameters(t *testing.T) {
	for _, tc := range []struct {
		k    int
		skew float64
	}{{0, 1}, {-1, 1}, {4, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %g) did not panic", tc.k, tc.skew)
				}
			}()
			NewZipf(tc.k, tc.skew)
		}()
	}
}

// TestZipfGuideMatchesSearch pins Sample's guide-table inversion to the
// definition it replaced — the bisection sort.SearchFloat64s(cum,
// u*total), clamped to the last object — for every kind of variate that
// could tell them apart: random ones, a power-of-two grid that lands on
// guide-cell edges (u = 1 included), every object boundary cum[o]/total
// with its two float neighbours, and the largest float64 below 1.
func TestZipfGuideMatchesSearch(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 64, 1000, 1024, 5000} {
		for _, skew := range []float64{0, 0.5, 1.1, 2.5} {
			z := NewZipf(k, skew)
			total := z.cum[k-1]
			check := func(u float64) {
				want := min(sort.SearchFloat64s(z.cum, u*total), k-1)
				if got := z.Sample(u); int(got) != want {
					t.Fatalf("k=%d skew=%g: Sample(%v) = %d, the bisection says %d", k, skew, u, got, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 200_000; i++ {
				check(rng.Float64())
			}
			for j := 0; j <= 4096; j++ {
				check(float64(j) / 4096)
			}
			for _, c := range z.cum {
				u := c / total
				check(u)
				check(math.Nextafter(u, 0))
				if u < 1 {
					check(math.Nextafter(u, 1))
				}
			}
			check(math.Nextafter(1, 0))
		}
	}
}
