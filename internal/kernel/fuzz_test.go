package kernel

import (
	"math"
	"testing"

	"brepartition/internal/bregman"
)

// mapIntoDomain mirrors the FuzzDistance corpus mapping in
// internal/bregman: full-line generators fold into [-30, 30] (keeping the
// exponential family finite), positive generators into [1e-3, 1e3).
func mapIntoDomain(div bregman.Divergence, v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 1
	}
	lo, _ := div.Domain()
	if lo == 0 {
		m := math.Mod(math.Abs(v), 3)
		return 1e-3 * math.Pow(10, m)
	}
	return math.Mod(v, 30)
}

// FuzzKernelDistance cross-checks every kernel against the scalar
// bregman.Distance oracle on fuzzed in-domain points. It is seeded with
// the same tuples as bregman's FuzzDistance so the two corpora explore the
// same coordinate space; run the stored corpus with `go test`, explore
// with `go test -fuzz=FuzzKernelDistance ./internal/kernel`.
func FuzzKernelDistance(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(0.5, 0.5, 0.5, 0.5)
	f.Add(-7.25, 12.0, 1e-3, 1e3)
	f.Add(29.9, -29.9, 0.001, 999.0)
	f.Add(0.0, -0.0, math.Pi, math.E)

	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, div := range bregman.All() {
			kern := For(div)
			x := []float64{mapIntoDomain(div, a), mapIntoDomain(div, b)}
			y := []float64{mapIntoDomain(div, c), mapIntoDomain(div, d)}
			if !bregman.InDomain(div, x) || !bregman.InDomain(div, y) {
				continue
			}

			want := bregman.Distance(div, x, y)
			got := kern.Distance(x, y)
			if kern.Name() == "l2" {
				// Fused closed form: documented-ULP compatibility at the
				// working magnitude Σx²+Σy² (the scalar expansion cancels
				// terms of exactly that size).
				var scale float64
				for j := range x {
					scale += x[j]*x[j] + y[j]*y[j]
				}
				tol := 1e-12 * math.Max(1, math.Max(scale, math.Max(math.Abs(got), math.Abs(want))))
				if math.Abs(got-want) > tol {
					t.Errorf("l2: kernel %v vs scalar %v for x=%v y=%v", got, want, x, y)
				}
			} else if got != want {
				t.Errorf("%s: kernel %v != scalar %v for x=%v y=%v (want bit equality)",
					kern.Name(), got, want, x, y)
			}

			// Self-distance stays exactly 0 through every kernel — the
			// invariant the engine's Score==0 assertions rely on.
			if self := kern.Distance(x, x); self != 0 {
				t.Errorf("%s: kernel D(x,x) = %v, want 0 (x=%v)", kern.Name(), self, x)
			}

			// The bounded path returns the distance itself up to the limit
			// and something beyond the limit past it.
			prep := prepOf(kern, y)
			for _, limit := range []float64{0, got / 2, got, 2 * got} {
				checkBounded(t, kern, x, y, prep, limit)
			}

			// The block path must agree with the scalar kernel bit for bit.
			block := Flatten([][]float64{x, y, x})
			out := make([]float64, 3)
			kern.DistancesTo(y, block, out)
			if out[0] != got || out[1] != 0 || out[2] != got {
				if !(math.IsNaN(out[0]) && math.IsNaN(got)) {
					t.Errorf("%s: DistancesTo %v disagrees with Distance %v", kern.Name(), out, got)
				}
			}
		}
	})
}
