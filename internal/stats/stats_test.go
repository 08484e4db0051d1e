package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryKnownSample(t *testing.T) {
	s := Of([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("std = %f, want sqrt(2)", s.Std)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := Of(nil)
	if s.Count != 0 || s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarySingleValue(t *testing.T) {
	s := Of([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 || s.P99 != 7 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if p := Percentile(sorted, 50); p != 5 {
		t.Errorf("p50 of {0,10} = %f, want 5", p)
	}
	if p := Percentile(sorted, 0); p != 0 {
		t.Errorf("p0 = %f", p)
	}
	if p := Percentile(sorted, 100); p != 10 {
		t.Errorf("p100 = %f", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Errorf("empty percentile = %f", p)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Errorf("mean = %f", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("empty mean = %f", m)
	}
}

// TestSummaryWelfordPrecision pins the Welford variance: the naive
// sumsq/n − mean² form cancels catastrophically on large samples with a
// small spread (latencies near 1e9 differing by units) and reports a
// wildly wrong Std; Welford stays exact.
func TestSummaryWelfordPrecision(t *testing.T) {
	s := Of([]float64{1e9, 1e9 + 1, 1e9 + 2})
	want := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.Std-want) > 1e-6 {
		t.Errorf("std = %v, want %v (catastrophic cancellation?)", s.Std, want)
	}
	if s.Mean != 1e9+1 {
		t.Errorf("mean = %v, want 1e9+1", s.Mean)
	}
}

// Property: min <= percentile(p) <= max for sorted samples and monotone
// percentiles.
func TestPercentileMonotone(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev || v < xs[0] || v > xs[len(xs)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBounded(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Of(xs)
		return s.Mean >= s.Min-1e-6 && s.Mean <= s.Max+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
