package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank p-quantile: the smallest sample with at
// least a share p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// because that is the spread the acceptance check of the benchmark
// contract uses. Fewer than two values have no spread.
func iqr(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	quart := func(i int) float64 {
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
	return quart(3) - quart(1)
}

// spreadShare is iqr ÷ median, the run-to-run spread as a share.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return iqr(xs) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
