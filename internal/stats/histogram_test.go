package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(50) != 0 || h.Max() != 0 || h.Mean() != 0 || h.Std() != 0 {
		t.Errorf("empty histogram not zero: %+v", h.Snapshot())
	}
	var o Histogram
	h.Merge(&o)
	h.Merge(nil)
	if h.Count() != 0 {
		t.Errorf("merging empties changed count to %d", h.Count())
	}
}

// Values below the sub-bucket count are recorded exactly: quantiles on a
// small-value sample are exact order statistics, not approximations.
func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Min() != 0 || h.Max() != 31 || h.Count() != 32 {
		t.Fatalf("min/max/count = %d/%d/%d", h.Min(), h.Max(), h.Count())
	}
	if q := h.Quantile(50); q != 15 {
		t.Errorf("p50 = %d, want 15", q)
	}
	if q := h.Quantile(100); q != 31 {
		t.Errorf("p100 = %d, want 31", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Errorf("p0 = %d, want 0", q)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative record: %+v", h.Snapshot())
	}
}

// The memory pin: bucket storage ends at the octave boundary of the
// largest value recorded, so it is fixed by Max — never by how many
// observations were recorded — and bounded by histBuckets. Merging grows
// the receiver to the wider of the two arrays.
func TestHistogramFixedMemory(t *testing.T) {
	octaveEnd := func(h *Histogram) int { return (histIndex(h.Max())>>histSubBits + 1) << histSubBits }
	var h Histogram
	for _, v := range []int64{0, 31, 32, 75, 1000, 1 << 20, 1 << 40, 1<<62 + 12345, math.MaxInt64} {
		h.Record(v)
		if h.Buckets() != octaveEnd(&h) || h.Buckets() > histBuckets {
			t.Fatalf("after recording %d: %d bucket slots, want the octave end %d (at most %d)",
				v, h.Buckets(), octaveEnd(&h), histBuckets)
		}
	}
	if h.Buckets() != histBuckets {
		t.Fatalf("MaxInt64 recorded: %d bucket slots, want all %d", h.Buckets(), histBuckets)
	}

	const top = 99999 * 37
	var small, large Histogram
	for i := 0; i < 1000; i++ {
		small.Record(int64(i) * 3700)
	}
	small.Record(top)
	for i := 0; i < 100000; i++ {
		large.Record(int64(i) * 37)
	}
	if small.Max() != large.Max() || small.Buckets() != large.Buckets() || small.Buckets() != octaveEnd(&small) {
		t.Fatalf("equal max %d: %d slots after 1000 observations, %d after 100000, want both %d",
			top, small.Buckets(), large.Buckets(), octaveEnd(&small))
	}

	rng := rand.New(rand.NewSource(5))
	var narrow, wide [2]Histogram
	var serial Histogram
	for i := 0; i < 2000; i++ {
		part := &narrow
		v := rng.Int63n(100)
		if i%2 == 1 {
			part, v = &wide, rng.Int63n(1<<30)
		}
		part[0].Record(v)
		part[1].Record(v)
		serial.Record(v)
	}
	wide[0].Merge(&narrow[0])
	narrow[1].Merge(&wide[1])
	for name, m := range map[string]*Histogram{"narrow into wide": &wide[0], "wide into narrow": &narrow[1]} {
		if m.Snapshot() != serial.Snapshot() || m.Buckets() != serial.Buckets() {
			t.Errorf("%s: snapshot %+v with %d slots, serial %+v with %d",
				name, m.Snapshot(), m.Buckets(), serial.Snapshot(), serial.Buckets())
		}
	}
}

// Every representable value must map to a valid bucket whose upper edge
// is within the advertised relative error.
func TestHistogramIndexBounds(t *testing.T) {
	vals := []int64{0, 1, 31, 32, 63, 64, 1000, 1 << 20, 1<<62 - 1, 1 << 62, math.MaxInt64}
	for _, v := range vals {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, i, histBuckets)
		}
		up := histUpper(i)
		if up < v {
			t.Errorf("histUpper(%d) = %d < value %d", i, up, v)
		}
		if maxErr := v >> histSubBits; up-v > maxErr {
			t.Errorf("value %d: upper %d exceeds relative error bound (+%d)", v, up, maxErr)
		}
	}
}

// Property: for random samples, Quantile(p) brackets the exact
// percentile within the bucket relative-error bound. The histogram's
// rank convention (⌈p/100·n⌉) and stats.Percentile's interpolated rank
// (p/100·(n−1)) differ by at most one order statistic, so the estimate
// must land in [sorted[lo−1], sorted[hi+1]·(1+1/32)] around Percentile's
// interpolation window [lo, hi].
func TestHistogramQuantileMatchesExactPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		scale := []int64{30, 1000, 1 << 20, 1 << 40}[trial%4]
		xs := make([]int64, n)
		var h Histogram
		for i := range xs {
			xs[i] = rng.Int63n(scale)
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		sortedF := make([]float64, n)
		for i, v := range xs {
			sortedF[i] = float64(v)
		}
		for _, p := range []float64{0, 10, 50, 90, 99, 99.9, 100} {
			got := h.Quantile(p)
			rank := p / 100 * float64(n-1)
			lo := int(math.Floor(rank)) - 1
			hi := int(math.Ceil(rank)) + 1
			if lo < 0 {
				lo = 0
			}
			if hi > n-1 {
				hi = n - 1
			}
			lower := xs[lo]
			upper := xs[hi] + xs[hi]>>histSubBits + 1
			if got < lower || got > upper {
				t.Fatalf("trial %d n=%d p=%v: quantile %d outside [%d, %d] (exact percentile %.1f)",
					trial, n, p, got, lower, upper, Percentile(sortedF, p))
			}
		}
	}
}

// Property: the tight per-rank guarantee — the estimate q for the exact
// order statistic x at the histogram's own rank satisfies
// x <= q <= x·(1+2^-histSubBits) (+1 for integer truncation).
func TestHistogramQuantileRankBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(2000)
		xs := make([]int64, n)
		var h Histogram
		for i := range xs {
			xs[i] = rng.Int63n(1 << 30)
			h.Record(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, p := range []float64{25, 50, 75, 90, 99, 99.9} {
			rank := int(math.Ceil(p / 100 * float64(n)))
			if rank < 1 {
				rank = 1
			}
			x := xs[rank-1]
			got := h.Quantile(p)
			if got < x || got > x+x>>histSubBits+1 {
				t.Fatalf("trial %d n=%d p=%v: estimate %d for order statistic %d violates relative bound",
					trial, n, p, got, x)
			}
		}
	}
}

// Property: merging histograms is exactly equivalent to recording every
// observation into one histogram — identical buckets (hence quantiles),
// min/max, count, AND moments. Mean/Std are bit-identical because the
// moment accumulators are exact integers.
func TestHistogramMergeEqualsCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(1000)
		cut := rng.Intn(n)
		var a, b, all Histogram
		for i := 0; i < n; i++ {
			v := rng.Int63n(1 << 35)
			if i < cut {
				a.Record(v)
			} else {
				b.Record(v)
			}
			all.Record(v)
		}
		a.Merge(&b)
		sa, sall := a.Snapshot(), all.Snapshot()
		if sa.Count != sall.Count || sa.Min != sall.Min || sa.Max != sall.Max ||
			sa.P50 != sall.P50 || sa.P90 != sall.P90 || sa.P99 != sall.P99 ||
			sa.P999 != sall.P999 {
			t.Fatalf("trial %d: merged snapshot %+v != combined %+v", trial, sa, sall)
		}
		if sa.Mean != sall.Mean {
			t.Fatalf("trial %d: merged mean %v != combined %v (exact accumulators must be bit-identical)", trial, sa.Mean, sall.Mean)
		}
		if sa.Std != sall.Std {
			t.Fatalf("trial %d: merged std %v != combined %v (exact accumulators must be bit-identical)", trial, sa.Std, sall.Std)
		}
	}
	// Merging into an empty histogram copies, merging an empty one is a
	// no-op.
	var src, dst Histogram
	src.Record(100)
	src.Record(200)
	dst.Merge(&src)
	if dst.Count() != 2 || dst.Min() != 100 || dst.Max() != 200 {
		t.Errorf("merge into empty: %+v", dst.Snapshot())
	}
	before := dst.Snapshot()
	var empty Histogram
	dst.Merge(&empty)
	if dst.Snapshot() != before {
		t.Error("merging an empty histogram changed the target")
	}
}

// The integer-accumulator moments must match the exact batch computation.
func TestHistogramMomentsMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	var h Histogram
	for i := range xs {
		v := rng.Int63n(1 << 40)
		xs[i] = float64(v)
		h.Record(v)
	}
	s := Of(xs)
	if math.Abs(h.Mean()-s.Mean) > 1e-6*s.Mean {
		t.Errorf("mean %v, exact %v", h.Mean(), s.Mean)
	}
	if math.Abs(h.Std()-s.Std) > 1e-6*s.Std {
		t.Errorf("std %v, exact %v", h.Std(), s.Std)
	}
}

// Property: any partition of a stream across shards, absorbed in any
// order, reproduces the serial histogram bit for bit.
func TestHistogramShardPartitionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		w := 2 + rng.Intn(7)
		shards := make([]Histogram, w)
		var serial Histogram
		n := 500 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			v := rng.Int63n(1 << 50)
			serial.Record(v)
			shards[rng.Intn(w)].Record(v)
		}
		var merged Histogram
		order := rng.Perm(w)
		for _, i := range order {
			merged.Merge(&shards[i])
		}
		if merged.Snapshot() != serial.Snapshot() {
			t.Fatalf("trial %d (w=%d, order %v): sharded snapshot %+v != serial %+v",
				trial, w, order, merged.Snapshot(), serial.Snapshot())
		}
	}
}

func TestDistRecorder(t *testing.T) {
	r := NewDistRecorder()
	r.RecordRequest(10, 3)
	r.RecordRequest(20, 0)
	if r.Latency.Count() != 2 || r.Hops.Count() != 2 {
		t.Fatalf("counts: latency %d hops %d", r.Latency.Count(), r.Hops.Count())
	}
	if r.Latency.Max() != 20 || r.Hops.Max() != 3 || r.Hops.Min() != 0 {
		t.Errorf("recorder state: %+v %+v", r.Latency.Snapshot(), r.Hops.Snapshot())
	}
}

// Once a recorder has seen its largest latency and hop count, recording
// at or below them allocates nothing: the closed loops call it on every
// completion.
func TestDistRecorderSteadyStateAllocs(t *testing.T) {
	r := NewDistRecorder()
	r.RecordRequest(1<<20, 75)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		r.RecordRequest(i*997%(1<<20), int(i%76))
	})
	if allocs != 0 {
		t.Errorf("RecordRequest at or below the recorded maximum: %v allocations, want 0", allocs)
	}
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 { return h.min }
