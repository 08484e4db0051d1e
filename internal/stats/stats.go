// Package stats provides the small set of summary statistics the
// experiment harness reports: mean, standard deviation, min/max, and
// percentiles over int64 and float64 samples.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	Count  int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Of computes a Summary of xs. An empty sample yields the zero Summary.
func Of(xs []float64) Summary {
	var s Summary
	s.Count = len(xs)
	if s.Count == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	// Welford's algorithm: the textbook sumsq/n − mean² form cancels
	// catastrophically when the spread is small relative to the values
	// (e.g. latencies near 1e9 differing by units), reporting a wildly
	// wrong or zero Std.
	var mean, m2 float64
	for i, x := range sorted {
		delta := x - mean
		mean += delta / float64(i+1)
		m2 += delta * (x - mean)
	}
	s.Mean = mean
	if m2 > 0 {
		s.Std = math.Sqrt(m2 / float64(s.Count))
	}
	s.Median = Percentile(sorted, 50)
	s.P90 = Percentile(sorted, 90)
	s.P99 = Percentile(sorted, 99)
	return s
}

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample using linear interpolation. The order is not checked: callers
// must sort.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
