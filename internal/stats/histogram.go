package stats

import (
	"math"
	"math/big"
	"math/bits"
)

// Histogram is a bounded-memory streaming histogram of non-negative int64
// observations (latencies in simulated time units, hop counts), built for
// the closed-loop drivers' per-request observability: recording is O(1)
// and allocation-free once the largest value has been seen, memory
// depends on that largest value and never on how many observations are
// recorded (the paper-scale runs record 100k requests per node) — at
// most a ~15KB bucket array — and quantile queries carry a bounded
// relative error.
//
// Buckets are HDR-style log-linear: values below 2^histSubBits are
// recorded exactly, and every octave above is split into 2^histSubBits
// linear sub-buckets, so a bucket's width is at most 2^-histSubBits of
// its lower edge and any quantile estimate q satisfies
//
//	x <= q <= x * (1 + 1/32)
//
// for the exact order statistic x at that rank.
//
// Moments are tracked as exact 128-bit integer accumulators (Σv and Σv²)
// rather than floating-point running statistics: integer addition is
// associative, so any partition of a stream of observations across
// histogram shards merges back to bit-identical Mean/Std regardless of
// the partition or the merge order (Histogram.Merge). Mean and Std are
// derived from the accumulators only at query time (Std via an exact
// big-integer variance numerator, avoiding the catastrophic cancellation
// of the naive Σv²/n − mean² form).
//
// The zero value is ready to use. The bucket array grows one octave
// (2^histSubBits buckets) at a time, to the end of the octave holding
// the largest value recorded: hop counts need a few hundred bytes, not
// the full array. Histogram is not safe for concurrent use — each sweep
// cell must own its recorder.
type Histogram struct {
	counts []int64
	count  int64
	min    int64
	max    int64
	// Exact moment accumulators. sum is the 128-bit Σv (cannot overflow:
	// count < 2^63 and v < 2^63 bound it below 2^126). sumsq is the
	// 128-bit Σv², saturating at 2^128−1; saturating addition of
	// non-negative terms is still associative and commutative, so even a
	// saturated Std stays identical across shard partitions.
	sumHi, sumLo     uint64
	sumSqHi, sumSqLo uint64
}

const (
	// histSubBits fixes the relative error: 2^histSubBits linear
	// sub-buckets per octave bound bucket width by 1/32 of the value.
	histSubBits = 5
	histSubCnt  = 1 << histSubBits
	// histBuckets covers all of int64: the top octave (k = 62 -
	// histSubBits) ends below (k+2)<<histSubBits.
	histBuckets = (64 - histSubBits) << histSubBits
)

// histIndex maps a value to its bucket. Values below histSubCnt map to
// themselves (exact); a larger v with most-significant bit m+k (m =
// histSubBits) keeps its top m+1 bits: index = k<<m + v>>k.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSubCnt {
		return int(u)
	}
	k := bits.Len64(u) - histSubBits - 1
	return k<<histSubBits + int(u>>uint(k))
}

// histUpper returns the largest value mapping to bucket i — the
// conservative representative Quantile reports.
func histUpper(i int) int64 {
	if i < histSubCnt {
		return int64(i)
	}
	k := i>>histSubBits - 1
	lower := int64(i-k<<histSubBits) << uint(k)
	return lower + int64(1)<<uint(k) - 1
}

// addSq folds a 128-bit term into the saturating Σv² accumulator.
func (h *Histogram) addSq(hi, lo uint64) {
	l, carry := bits.Add64(h.sumSqLo, lo, 0)
	hh, overflow := bits.Add64(h.sumSqHi, hi, carry)
	if overflow != 0 {
		l, hh = math.MaxUint64, math.MaxUint64
	}
	h.sumSqLo, h.sumSqHi = l, hh
}

// grow extends the bucket array to the end of bucket i's octave. The top
// octave ends at histBuckets, so the array never exceeds it.
func (h *Histogram) grow(i int) {
	counts := make([]int64, (i>>histSubBits+1)<<histSubBits)
	copy(counts, h.counts)
	h.counts = counts
}

// Record adds one observation. Negative values are clamped to zero (the
// drivers only produce non-negative latencies and hop counts).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := histIndex(v)
	if i >= len(h.counts) {
		h.grow(i)
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	u := uint64(v)
	var carry uint64
	h.sumLo, carry = bits.Add64(h.sumLo, u, 0)
	h.sumHi += carry
	sqHi, sqLo := bits.Mul64(u, u)
	h.addSq(sqHi, sqLo)
}

// Merge folds o into h, as if every observation recorded into o had been
// recorded into h: bucket counts, min/max, and the integer moment
// accumulators all combine exactly, so merging is associative and
// commutative — any shard partition of a stream reproduces the serial
// histogram bit for bit. o is left unchanged.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		h.grow(len(o.counts) - 1)
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	var carry uint64
	h.sumLo, carry = bits.Add64(h.sumLo, o.sumLo, 0)
	h.sumHi += o.sumHi + carry
	h.addSq(o.sumSqHi, o.sumSqLo)
	h.count += o.count
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// u128Float converts a 128-bit unsigned accumulator to float64.
func u128Float(hi, lo uint64) float64 {
	if hi == 0 {
		return float64(lo)
	}
	return float64(hi)*0x1p64 + float64(lo)
}

// Mean returns the arithmetic mean of the recorded values (0 when
// empty). The division is the only floating-point step, applied to the
// exact integer Σv, so the result is a deterministic function of the
// multiset of observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return u128Float(h.sumHi, h.sumLo) / float64(h.count)
}

// Std returns the population standard deviation (0 when empty). The
// variance numerator n·Σv² − (Σv)² is computed exactly in big-integer
// arithmetic before the final float conversion, so small variances of
// large values do not cancel catastrophically.
func (h *Histogram) Std() float64 {
	if h.count == 0 {
		return 0
	}
	num := new(big.Int).SetUint64(h.sumSqHi)
	num.Lsh(num, 64)
	num.Add(num, new(big.Int).SetUint64(h.sumSqLo))
	num.Mul(num, big.NewInt(h.count))
	sum := new(big.Int).SetUint64(h.sumHi)
	sum.Lsh(sum, 64)
	sum.Add(sum, new(big.Int).SetUint64(h.sumLo))
	sum.Mul(sum, sum)
	num.Sub(num, sum)
	if num.Sign() <= 0 {
		return 0
	}
	f, _ := new(big.Float).SetInt(num).Float64()
	n := float64(h.count)
	return math.Sqrt(f / (n * n))
}

// Buckets returns the number of allocated bucket slots: the end of the
// octave holding Max, at most histBuckets, independent of Count. Tests
// use it to pin the bounded-memory property.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Quantile returns an estimate of the p-th percentile (0..100): the
// upper edge of the bucket holding the rank-⌈p/100·Count⌉ observation,
// clamped to the exact observed [Min, Max]. The estimate q of an exact
// order statistic x satisfies x <= q <= x·(1+2^-histSubBits). p<=0
// returns Min, p>=100 returns Max, an empty histogram returns 0.
func (h *Histogram) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := histUpper(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Dist is the fixed-size summary of a Histogram: the streaming moments
// plus the standard tail quantiles. The JSON tags are the wire shape of
// the arrowbench -json documents (and their golden files), so renaming a
// field is a schema change.
type Dist struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Min   int64   `json:"min"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	P999  int64   `json:"p999"`
	Max   int64   `json:"max"`
}

// Snapshot summarizes the histogram as a Dist.
func (h *Histogram) Snapshot() Dist {
	return Dist{
		Count: h.count,
		Mean:  h.Mean(),
		Std:   h.Std(),
		Min:   h.min,
		P50:   h.Quantile(50),
		P90:   h.Quantile(90),
		P99:   h.Quantile(99),
		P999:  h.Quantile(99.9),
		Max:   h.max,
	}
}

// Recorder receives one observation per completed request: its queuing
// latency (simulated time units) and its queue/find hop count.
// Implementations must be cheap and allocation-free — the closed-loop
// drivers invoke them on the completion hot path — and need not be
// concurrency-safe: every sweep cell owns its recorder.
type Recorder interface {
	RecordRequest(latency int64, hops int)
}

// DistRecorder is the standard Recorder: one bounded-memory Histogram per
// observed dimension. The zero value is ready to use.
type DistRecorder struct {
	Latency Histogram
	Hops    Histogram
}

// NewDistRecorder returns an empty DistRecorder.
func NewDistRecorder() *DistRecorder { return &DistRecorder{} }

// RecordRequest implements Recorder.
func (r *DistRecorder) RecordRequest(latency int64, hops int) {
	r.Latency.Record(latency)
	r.Hops.Record(int64(hops))
}
