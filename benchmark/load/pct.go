package load

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail read off fewer is one slow request, not a distribution.
const MinBeyond = 10

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of an
// ascending sample, and false when fewer than MinBeyond samples lie beyond
// it.
func Percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < MinBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive, method), so
// -compare judges spread exactly as the acceptance rule does. It needs at
// least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	data := Sorted(xs)
	m := len(data)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the middle value of xs (the mean of the two middle ones
// when their number is even). It needs at least one sample.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean of xs (0 for none).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
