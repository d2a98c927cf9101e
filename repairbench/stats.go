package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples the tail percentile must leave above it:
// a percentile with fewer samples beyond it is one or two slow jobs, not
// a tail.
const minBeyond = 10

// tailLadder lists the percentiles repair_tail_s may report. 60 and 80
// are left out on purpose: with an equal five-way scenario mix they sit
// on the boundary between two scenarios' clusters, so one job more or
// less moves them from one cluster to the next.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending xs,
// interpolating linearly between neighbouring order statistics.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return xs[n-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is the 0.5-quantile of unsorted xs.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// beyond counts the samples of n that lie strictly above the interpolated
// p-th percentile position.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	return n - 1 - int(math.Floor(pos))
}

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples above it; ok is false when even the
// median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// quartiles returns the first, second and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the acceptance
// arithmetic exactly.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	ld := len(d)
	switch ld {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// relIQR is the interquartile range of xs as a share of its median.
func relIQR(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
