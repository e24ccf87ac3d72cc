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

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs: the
// smallest sample with at least p% of the samples at or below it. It is 0
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The tolerance keeps binary rounding (99.9/100*10000 is just above 9990)
// from pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentiles are the tails the harness prints, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// reportableTail returns the highest tail percentile of n samples that has
// at least ten samples above its rank, or false when even p90 has fewer.
func reportableTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// median is the middle sample of xs, or the mean of the two middle ones
// (Python's statistics.median). It is 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the acceptance check's. It needs
// at least two samples; with fewer both quartiles are the lone sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// fastest returns, for each input of a run, the smallest of its values,
// in input order. Values of negative inputs (the untimed held-out seed)
// are left out.
func fastest(inputs []int, values []float64) []float64 {
	best := make(map[int]float64)
	for i, in := range inputs {
		if v, ok := best[in]; in >= 0 && (!ok || values[i] < v) {
			best[in] = values[i]
		}
	}
	keys := make([]int, 0, len(best))
	for in := range best {
		keys = append(keys, in)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, in := range keys {
		out[i] = best[in]
	}
	return out
}
