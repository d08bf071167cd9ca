package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and
// how many samples lie strictly beyond that rank. +Inf samples (failed
// requests) sort last. xs is not modified.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - rank - 1
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// ratio is num/den, or 0 when den is 0 (a layer that did not run).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
