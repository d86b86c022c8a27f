package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a latency tail may be reported at,
// lowest first, in parts per 100000.
var tailLevels = []int64{50000, 90000, 99000, 99900, 99990, 99999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile that has at least
// minBeyond of n samples beyond it, returned in percent (0 when even
// the median has fewer than minBeyond samples above it).
func tailPercentile(n int) float64 {
	best := int64(0)
	for _, p := range tailLevels {
		if int64(n)*(100000-p)/100000 >= minBeyond {
			best = p
		}
	}
	return float64(best) / 1000
}

// percentile is the nearest-rank p-th percentile (p in percent) of
// sorted; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank-1, 0), len(sorted)-1)]
}

// weighted is one latency observation standing for weight rows.
type weighted struct {
	v float64
	w int64
}

// weightedPercentile is the nearest-rank p-th percentile of samples
// counting each value weight times; it sorts samples in place.
func weightedPercentile(samples []weighted, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].v < samples[j].v })
	var total int64
	for _, s := range samples {
		total += s.w
	}
	need := int64(math.Ceil(p / 100 * float64(total)))
	var acc int64
	for _, s := range samples {
		acc += s.w
		if acc >= need {
			return s.v
		}
	}
	return samples[len(samples)-1].v
}

// median follows Python's statistics.median: the mean of the two middle
// values for an even count.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles follows Python's statistics.quantiles(values, n=4) with its
// default exclusive method, so the spreads printed here are the ones a
// reader recomputes from the same values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
