package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of ascending xs by linear
// interpolation between closest ranks, or 0 with no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// overIterations is a metric's value over the iterations of one run:
// the median, with the quartiles.
func overIterations(xs []float64) measured {
	s := sorted(xs)
	return measured{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// supported reports whether at least ten of n samples lie beyond the
// q-quantile, the least a percentile needs to mean anything.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 100 × (1 − 0.9) is a hair under 10 in floating point
}

// ratio is a/b, or 0 when b is 0: a layer a workload bypasses reports 0
// rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
