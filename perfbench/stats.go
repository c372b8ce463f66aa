package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the exact nearest-rank q-quantile (0 < q < 1) of
// sorted, refusing one with fewer than minBeyond samples beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", q*100, minBeyond, n, beyond)
	}
	return sorted[k], nil
}

// median returns the middle value of xs (the mean of the two middle
// ones for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
