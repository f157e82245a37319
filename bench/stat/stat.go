// Package stat holds the arithmetic psbench reports with: medians and
// quartiles over rounds, nearest-rank percentiles over latency samples,
// and the spread-over-median figure the repeat gate compares to a bound.
package stat

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (mean of the two middle values
// for an even count) and NaN for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method: position
// (n+1)·p, linear interpolation between the two nearest points), so
// the spread psbench prints is the spread the contract's driver
// computes. A single value is returned twice.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s := Sorted(xs)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// IQRFrac is (q3−q1)/median: the run-to-run spread as a share of the
// median. Zero medians give +Inf so a degenerate metric never passes.
func IQRFrac(xs []float64) float64 {
	m := Median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.Inf(1)
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice: the smallest element with at least p% of the
// samples at or below it.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}
