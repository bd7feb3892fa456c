package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted and
// how many samples lie strictly beyond its rank.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := nearestRank(p, n)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// nearestRank is the 1-based rank of the p-quantile of n samples; the
// tolerance keeps p*n that is whole in decimal from rounding up a rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// candidatePercentiles are the percentiles the summary line may report,
// highest first.
var candidatePercentiles = []float64{0.9999, 0.999, 0.995, 0.99, 0.95, 0.9, 0.5}

// highestPercentile returns the highest candidate percentile of n samples
// that still has at least minTail samples beyond it (0 when none has).
func highestPercentile(n int) float64 {
	for _, p := range candidatePercentiles {
		if n-nearestRank(p, n) >= minTail {
			return p
		}
	}
	return 0
}

// median returns the median of xs (NaN for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
