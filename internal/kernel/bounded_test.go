package kernel

import (
	"math"
	"math/rand"
	"testing"

	"brepartition/internal/bregman"
)

// checkBounded asserts DistancePrepBound's contract for one (x, q, limit):
// bit-identical to DistancePrep whenever that is ≤ limit (or the limit is
// NaN, which disables abandoning), and > limit otherwise. A NaN distance
// (overflowed operands) compares with nothing and is skipped.
func checkBounded(t *testing.T, kern Kernel, x, q, prep []float64, limit float64) {
	t.Helper()
	full := kern.DistancePrep(x, q, prep)
	if math.IsNaN(full) {
		return
	}
	got := kern.DistancePrepBound(x, q, prep, limit)
	switch {
	case (full <= limit || math.IsNaN(limit)) && got != full:
		t.Fatalf("%s: limit %g admits distance %g, but the bounded call returned %g (x[:4]=%v q[:4]=%v)",
			kern.Name(), limit, full, got, x[:4], q[:4])
	case full > limit && !(got > limit):
		t.Fatalf("%s: distance %g exceeds limit %g, but the bounded call returned %g (x[:4]=%v q[:4]=%v)",
			kern.Name(), full, limit, got, x[:4], q[:4])
	}
}

func prepOf(kern Kernel, q []float64) []float64 {
	prep := make([]float64, kern.QueryScratchLen(len(q)))
	kern.PrepQuery(prep, q)
	return prep
}

// limitsAround returns limits on both sides of every prefix sum of the
// distance — the values the abandon check actually sees — and of the
// distance itself, plus the degenerate ones.
func limitsAround(kern Kernel, x, q []float64) []float64 {
	limits := []float64{-1, 0, math.Inf(1), math.NaN()}
	for m := 1; m <= len(x); m++ {
		s := kern.DistancePrep(x[:m], q[:m], prepOf(kern, q[:m]))
		limits = append(limits, s/2, math.Nextafter(s, math.Inf(-1)), s, math.Nextafter(s, math.Inf(1)), 2*s)
	}
	return limits
}

// TestDistancePrepBoundContract runs the bounded-distance contract over
// the domain-edge coordinates the scalar-oracle tests use, for every
// registered divergence (the generic fallback never abandons and passes
// trivially), at a dimensionality that covers the unrolled body, the
// 16-wide L2 check and the scalar tail.
func TestDistancePrepBoundContract(t *testing.T) {
	const dim = 37
	for _, div := range bregman.All() {
		kern := For(div)
		vals := domainEdgeValues(div)
		for sx := 1; sx < len(vals); sx++ {
			for sq := 1; sq < len(vals); sq += 3 {
				x, q := make([]float64, dim), make([]float64, dim)
				for j := range x {
					x[j] = vals[(j*sx)%len(vals)]
					q[j] = vals[(j*sq+sx)%len(vals)]
				}
				prep := prepOf(kern, q)
				for _, limit := range limitsAround(kern, x, q) {
					checkBounded(t, kern, x, q, prep, limit)
				}
			}
		}
	}
}

// TestAbandonMarginCoversNegativeRounding exercises the abandon margin
// where it matters: points within a few ulps of the query at coordinates
// whose generator values are large, so the cancelling terms round to
// either sign and the running sum is not monotone. Without the margin a
// prefix above the limit would abandon a point whose completed distance is
// within it; the contract must hold, and the data must really contain such
// prefixes for the kernels whose terms can round negative.
func TestAbandonMarginCoversNegativeRounding(t *testing.T) {
	large := map[string]float64{
		"mahalanobis": 1e6, "is": 1e-3, "exp": 29.9, "gkl": 1e3, "shannon": 1e3, "burg": 1e3,
	}
	const dim = 64
	for _, div := range bregman.All() {
		kern := For(div)
		base, ok := large[kern.Name()]
		if !ok {
			continue // L2 terms are exact squares; the generic kernel never abandons
		}
		rng := rand.New(rand.NewSource(31))
		nonMonotone := 0
		for trial := 0; trial < 200; trial++ {
			x, q := make([]float64, dim), make([]float64, dim)
			for j := range q {
				q[j] = base * (1 + 0.01*rng.Float64())
				x[j] = q[j]
				for u := rng.Intn(7) - 3; u != 0; {
					if u > 0 {
						x[j], u = math.Nextafter(x[j], math.Inf(1)), u-1
					} else {
						x[j], u = math.Nextafter(x[j], 0), u+1
					}
				}
			}
			prep := prepOf(kern, q)
			full := kern.DistancePrep(x, q, prep)
			for m := 4; m < dim; m += 4 {
				if kern.DistancePrep(x[:m], q[:m], prepOf(kern, q[:m])) > full {
					nonMonotone++
					break
				}
			}
			for _, limit := range limitsAround(kern, x, q) {
				checkBounded(t, kern, x, q, prep, limit)
			}
		}
		if nonMonotone == 0 {
			t.Errorf("%s: no trial had a prefix sum above its completed distance; the margin went unexercised", kern.Name())
		}
	}
}
