package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// suite reports it: with fewer, the figure is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// samplesBeyond counts the samples strictly above the nearest-rank
// q-quantile position of n samples.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile returns the highest of p50/p90/p99/p99.9 that has at
// least minBeyond samples beyond it, and 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if samplesBeyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median averages the two middle samples of an even count, as Python's
// statistics.median does.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the steadiness figure the acceptance
// protocol computes over ten runs. Quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method), so the table
// -selfcheck prints is the one the protocol would compute.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	quant := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quant(3) - quant(1)) / math.Abs(med)
}
