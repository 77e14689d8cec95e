package bench

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of v,
// and 0 for an empty sample.
func Percentile(v []float64, p float64) float64 {
	return percentileSorted(sorted(v), p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median is the mean of the two middle values for even n, matching Python's
// statistics.median, which the acceptance procedure uses.
func Median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), so a spread
// computed here is the spread the acceptance procedure computes. It needs
// two samples; fewer yield (0, 0).
func Quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0, 0
	}
	at := func(i int) float64 {
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

// tailLadder lists the percentiles a latency sample may be summarised by.
var tailLadder = []float64{50, 90, 99, 99.9}

// TailPercentile picks the highest percentile of the ladder that still has
// at least ten of the n samples beyond it; a tail estimated from fewer is a
// single outlier, not a percentile. Below twenty samples it stays at 50.
func TailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// Integer arithmetic in tenths of a percent: float rounding must
		// not turn "exactly ten beyond" into nine.
		beyond := n * (1000 - int(math.Round(p*10))) / 1000
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// gateTail is op_tail_ms on the training workloads: the 90th percentile
// where at least ten samples lie beyond it, else the median.
func gateTail(v []float64) float64 {
	if TailPercentile(len(v)) >= 90 {
		return Percentile(v, 90)
	}
	return Median(v)
}
