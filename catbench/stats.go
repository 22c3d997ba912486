package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is statistics.median: the middle value, or the mean of the two
// middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match those computed from
// the same values in Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
