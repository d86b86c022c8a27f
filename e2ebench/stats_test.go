package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // 9 samples above the median
		{20, 50},   // 10 above the median
		{99, 50},   // 9 above p90
		{100, 90},  // 10 above p90, 1 above p99
		{999, 90},  // 9 above p99
		{1000, 99}, // 10 above p99
		{10000, 99.9},
		{100000, 99.99},
		{1000000, 99.999},
		{50000000, 99.999}, // no level beyond the finest
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestWeightedPercentileCountsWeights(t *testing.T) {
	// Three rows at 9 ms outweigh one at 1 ms and one at 2 ms.
	s := []weighted{{v: 9, w: 3}, {v: 1, w: 1}, {v: 2, w: 1}}
	if got := weightedPercentile(s, 50); got != 9 {
		t.Errorf("weighted median = %v, want 9", got)
	}
	if got := weightedPercentile(s, 40); got != 2 {
		t.Errorf("weighted p40 = %v, want 2", got)
	}
}

// The expected values come from Python's statistics.quantiles(v, n=4)
// and statistics.median, which the steadiness rule is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, 1.6, 3.1, 7.15},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := median([]float64{1, 5, 2, 8}); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
}

func TestTypicalRateIgnoresStall(t *testing.T) {
	// Four frames of 10 events sent 100 ns apart, but for one 800 ns stall.
	st := &loopStats{frames: 4, events: 40, sends: []int64{0, 100, 200, 1000}}
	if got := st.typicalRate(); got != 1e8 {
		t.Errorf("typicalRate = %g events/s, want 1e8", got)
	}
}
