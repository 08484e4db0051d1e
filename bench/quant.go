package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the rule the benchmark's acceptance check applies to the same
// values. Fewer than two samples have no spread: both quartiles are the
// sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(m+1)/4, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples. The small guard keeps products such as 99.9 % of 1000,
// which floating point puts a hair above 999, from rounding up a rank.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sortedXs []float64, p float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	return sortedXs[max(1, min(rank(len(sortedXs), p), len(sortedXs)))-1]
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be quoted: with fewer, the value is a handful of outliers, not a
// property of the distribution.
const minBeyond = 10

// samplesBeyond is the number of samples strictly above the p-th
// nearest-rank percentile of n samples.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// quotable returns the p-th percentile of an ascending slice, or 0 when
// the percentile rule does not allow quoting it at this sample count.
func quotable(sortedXs []float64, p float64) float64 {
	if samplesBeyond(len(sortedXs), p) < minBeyond {
		return 0
	}
	return percentile(sortedXs, p)
}
