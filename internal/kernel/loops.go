// Hot inner loops, isolated so the bounds-check-elimination audit can hold
// this file to zero surviving checks: CI compiles the package with
// -gcflags=-d=ssa/check_bce and fails if the compiler reports any
// IsInBounds/IsSliceInBounds on a loops.go line (scripts/check_bce.sh).
//
// Every function here follows two rules:
//
//  1. No validation. Callers (kernel.go) establish the length contracts;
//     loops guard with `len` comparisons the prove-bounds pass understands
//     (advance-by-reslicing for the unrolled body, multi-slice `i < len`
//     conditions for the tail), so no run-time check survives compilation.
//  2. Exact arithmetic contract. Each accumulation performs the same
//     per-coordinate expression as bregman.Distance in the same
//     left-to-right order, so sums are bit-identical to the scalar oracle;
//     the "Prep" variants read query-side terms from a precomputed slice
//     instead of recomputing them, which changes the operation count but
//     not one bit of any operand or result. Only the squared-Euclidean
//     loops reassociate (documented-ULP contract): l2Sum runs 8-wide with
//     four independent accumulators so the adds pipeline.
//  3. Bounded sums. l2Sum and every …PrepSum take a bound and return their
//     running total as soon as it exceeds it; a sum that runs to completion
//     has performed exactly the unbounded operations, so it is bit-identical
//     to the +Inf-bound call. kernel.go derives the bound from the caller's
//     limit (abandonBound) so that an early return implies the completed
//     sum would have exceeded the limit too.
//
// The unrolled bodies are written in the 4/8-wide single-induction shape
// the compiler can keep in registers and, where the contract permits
// reassociation (L2), vectorize.
package kernel

import "math"

// ---------------------------------------------------------------------------
// Squared Euclidean
// ---------------------------------------------------------------------------

// l2Sum computes Σ(x−y)² with four independent 2-wide accumulator chains
// (documented-ULP reassociation; exact at x = y in every lane). Every 16
// coordinates (every second step: the remaining length's 8-bit flips per
// step) the running total is compared with bound and returned as soon as it
// exceeds it — exact, since every square is ≥ 0 and rounding is monotone.
func l2Sum(x, y []float64, bound float64) float64 {
	var s0, s1, s2, s3 float64
	for len(x) >= 8 && len(y) >= 8 {
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		d4 := x[4] - y[4]
		d5 := x[5] - y[5]
		d6 := x[6] - y[6]
		d7 := x[7] - y[7]
		s0 += d0*d0 + d4*d4
		s1 += d1*d1 + d5*d5
		s2 += d2*d2 + d6*d6
		s3 += d3*d3 + d7*d7
		x, y = x[8:], y[8:]
		if len(x)&8 == 0 && s0+s1+s2+s3 > bound {
			return s0 + s1 + s2 + s3
		}
	}
	var s float64
	for i := 0; i < len(x) && i < len(y); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s0 + s1 + s2 + s3 + s
}

// l2Geo accumulates the fused geodesic divergences for φ(t) = t².
func l2Geo(gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64) {
	a, b := 1-theta, theta
	for len(gq) >= 4 && len(gmu) >= 4 && len(q) >= 4 && len(mu) >= 4 {
		xt0 := (a*gq[0] + b*gmu[0]) / 2
		xt1 := (a*gq[1] + b*gmu[1]) / 2
		xt2 := (a*gq[2] + b*gmu[2]) / 2
		xt3 := (a*gq[3] + b*gmu[3]) / 2
		dq0, dm0 := xt0-q[0], xt0-mu[0]
		dq1, dm1 := xt1-q[1], xt1-mu[1]
		dq2, dm2 := xt2-q[2], xt2-mu[2]
		dq3, dm3 := xt3-q[3], xt3-mu[3]
		dQ += dq0 * dq0
		dQ += dq1 * dq1
		dQ += dq2 * dq2
		dQ += dq3 * dq3
		dMu += dm0 * dm0
		dMu += dm1 * dm1
		dMu += dm2 * dm2
		dMu += dm3 * dm3
		gq, gmu, q, mu = gq[4:], gmu[4:], q[4:], mu[4:]
	}
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := (a*gq[i] + b*gmu[i]) / 2
		dq := xt - q[i]
		dm := xt - mu[i]
		dQ += dq * dq
		dMu += dm * dm
	}
	return dQ, dMu
}

// ---------------------------------------------------------------------------
// Mahalanobis (uniform diagonal weight w)
// ---------------------------------------------------------------------------

// mahaSum computes the Mahalanobis sum in bregman.Distance's exact order:
// s += w·x² − w·y² − (2w)·y·(x−y), one ordered accumulator.
func mahaSum(w float64, x, y []float64) float64 {
	var s float64
	for len(x) >= 4 && len(y) >= 4 {
		s += w*x[0]*x[0] - w*y[0]*y[0] - 2*w*y[0]*(x[0]-y[0])
		s += w*x[1]*x[1] - w*y[1]*y[1] - 2*w*y[1]*(x[1]-y[1])
		s += w*x[2]*x[2] - w*y[2]*y[2] - 2*w*y[2]*(x[2]-y[2])
		s += w*x[3]*x[3] - w*y[3]*y[3] - 2*w*y[3]*(x[3]-y[3])
		x, y = x[4:], y[4:]
	}
	for i := 0; i < len(x) && i < len(y); i++ {
		s += w*x[i]*x[i] - w*y[i]*y[i] - 2*w*y[i]*(x[i]-y[i])
	}
	return s
}

// mahaPrep fills p1 = w·q² and p2 = (2w)·q, the query-side invariants of
// mahaSum (identical subexpressions, evaluated once per query).
func mahaPrep(w float64, p1, p2, q []float64) {
	for i := 0; i < len(p1) && i < len(p2) && i < len(q); i++ {
		p1[i] = w * q[i] * q[i]
		p2[i] = 2 * w * q[i]
	}
}

// mahaPrepSum is mahaSum with the query side read from mahaPrep's output.
func mahaPrepSum(w float64, x, q, p1, p2 []float64, bound float64) float64 {
	var s float64
	for len(x) >= 4 && len(q) >= 4 && len(p1) >= 4 && len(p2) >= 4 {
		s += w*x[0]*x[0] - p1[0] - p2[0]*(x[0]-q[0])
		s += w*x[1]*x[1] - p1[1] - p2[1]*(x[1]-q[1])
		s += w*x[2]*x[2] - p1[2] - p2[2]*(x[2]-q[2])
		s += w*x[3]*x[3] - p1[3] - p2[3]*(x[3]-q[3])
		x, q, p1, p2 = x[4:], q[4:], p1[4:], p2[4:]
		if s > bound {
			return s
		}
	}
	for i := 0; i < len(x) && i < len(q) && i < len(p1) && i < len(p2); i++ {
		s += w*x[i]*x[i] - p1[i] - p2[i]*(x[i]-q[i])
	}
	return s
}

// mahaGeo accumulates the fused geodesic divergences for φ(t) = w·t².
// w·xt² is evaluated once and reused across both sums (bit-identical CSE).
func mahaGeo(w float64, gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64) {
	a, b := 1-theta, theta
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := (a*gq[i] + b*gmu[i]) / (2 * w)
		qv, mv := q[i], mu[i]
		wxt2 := w * xt * xt
		dQ += wxt2 - w*qv*qv - 2*w*qv*(xt-qv)
		dMu += wxt2 - w*mv*mv - 2*w*mv*(xt-mv)
	}
	return dQ, dMu
}

// ---------------------------------------------------------------------------
// Itakura–Saito: φ(t) = −log t
// ---------------------------------------------------------------------------

func isSum(x, y []float64) float64 {
	var s float64
	for len(x) >= 4 && len(y) >= 4 {
		s += -math.Log(x[0]) - (-math.Log(y[0])) - (-1/y[0])*(x[0]-y[0])
		s += -math.Log(x[1]) - (-math.Log(y[1])) - (-1/y[1])*(x[1]-y[1])
		s += -math.Log(x[2]) - (-math.Log(y[2])) - (-1/y[2])*(x[2]-y[2])
		s += -math.Log(x[3]) - (-math.Log(y[3])) - (-1/y[3])*(x[3]-y[3])
		x, y = x[4:], y[4:]
	}
	for i := 0; i < len(x) && i < len(y); i++ {
		s += -math.Log(x[i]) - (-math.Log(y[i])) - (-1/y[i])*(x[i]-y[i])
	}
	return s
}

// isPrep fills p1 = −log q and p2 = −1/q.
func isPrep(p1, p2, q []float64) {
	for i := 0; i < len(p1) && i < len(p2) && i < len(q); i++ {
		p1[i] = -math.Log(q[i])
		p2[i] = -1 / q[i]
	}
}

func isPrepSum(x, q, p1, p2 []float64, bound float64) float64 {
	var s float64
	for len(x) >= 4 && len(q) >= 4 && len(p1) >= 4 && len(p2) >= 4 {
		s += -math.Log(x[0]) - p1[0] - p2[0]*(x[0]-q[0])
		s += -math.Log(x[1]) - p1[1] - p2[1]*(x[1]-q[1])
		s += -math.Log(x[2]) - p1[2] - p2[2]*(x[2]-q[2])
		s += -math.Log(x[3]) - p1[3] - p2[3]*(x[3]-q[3])
		x, q, p1, p2 = x[4:], q[4:], p1[4:], p2[4:]
		if s > bound {
			return s
		}
	}
	for i := 0; i < len(x) && i < len(q) && i < len(p1) && i < len(p2); i++ {
		s += -math.Log(x[i]) - p1[i] - p2[i]*(x[i]-q[i])
	}
	return s
}

// isGeo accumulates the fused geodesic divergences for φ(t) = −log t.
// gq/gmu are ∇f(q) = −1/q and ∇f(µ) = −1/µ, reused directly (the bits the
// serial expression recomputes); log xt is evaluated once per coordinate.
func isGeo(gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64, ok bool) {
	a, b := 1-theta, theta
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := -1 / (a*gq[i] + b*gmu[i])
		if math.IsInf(xt, 0) || math.IsNaN(xt) {
			return dQ, dMu, false
		}
		lxt := math.Log(xt)
		dQ += -lxt - (-math.Log(q[i])) - gq[i]*(xt-q[i])
		dMu += -lxt - (-math.Log(mu[i])) - gmu[i]*(xt-mu[i])
	}
	return dQ, dMu, true
}

// ---------------------------------------------------------------------------
// Exponential: φ(t) = eᵗ
// ---------------------------------------------------------------------------

func expSum(x, y []float64) float64 {
	var s float64
	for len(x) >= 4 && len(y) >= 4 {
		e0 := math.Exp(y[0])
		s += math.Exp(x[0]) - e0 - e0*(x[0]-y[0])
		e1 := math.Exp(y[1])
		s += math.Exp(x[1]) - e1 - e1*(x[1]-y[1])
		e2 := math.Exp(y[2])
		s += math.Exp(x[2]) - e2 - e2*(x[2]-y[2])
		e3 := math.Exp(y[3])
		s += math.Exp(x[3]) - e3 - e3*(x[3]-y[3])
		x, y = x[4:], y[4:]
	}
	for i := 0; i < len(x) && i < len(y); i++ {
		ey := math.Exp(y[i])
		s += math.Exp(x[i]) - ey - ey*(x[i]-y[i])
	}
	return s
}

// expPrep fills p1 = exp(q).
func expPrep(p1, q []float64) {
	for i := 0; i < len(p1) && i < len(q); i++ {
		p1[i] = math.Exp(q[i])
	}
}

func expPrepSum(x, q, p1 []float64, bound float64) float64 {
	var s float64
	for len(x) >= 4 && len(q) >= 4 && len(p1) >= 4 {
		s += math.Exp(x[0]) - p1[0] - p1[0]*(x[0]-q[0])
		s += math.Exp(x[1]) - p1[1] - p1[1]*(x[1]-q[1])
		s += math.Exp(x[2]) - p1[2] - p1[2]*(x[2]-q[2])
		s += math.Exp(x[3]) - p1[3] - p1[3]*(x[3]-q[3])
		x, q, p1 = x[4:], q[4:], p1[4:]
		if s > bound {
			return s
		}
	}
	for i := 0; i < len(x) && i < len(q) && i < len(p1); i++ {
		s += math.Exp(x[i]) - p1[i] - p1[i]*(x[i]-q[i])
	}
	return s
}

// expGeo accumulates the fused geodesic divergences for φ(t) = eᵗ. The
// query/center exponentials eq = e^q and eµ = e^µ are exactly gq and gmu
// (∇f = exp), so the two heaviest transcendentals per coordinate read
// straight from the gradient vectors the projector already holds.
func expGeo(gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64, ok bool) {
	a, b := 1-theta, theta
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := math.Log(a*gq[i] + b*gmu[i])
		if math.IsInf(xt, 0) || math.IsNaN(xt) {
			return dQ, dMu, false
		}
		ext := math.Exp(xt)
		eq := gq[i]
		em := gmu[i]
		dQ += ext - eq - eq*(xt-q[i])
		dMu += ext - em - em*(xt-mu[i])
	}
	return dQ, dMu, true
}

// ---------------------------------------------------------------------------
// Generalized KL: φ(t) = t·log t − t
// ---------------------------------------------------------------------------

func gklSum(x, y []float64) float64 {
	var s float64
	for len(x) >= 4 && len(y) >= 4 {
		l0 := math.Log(y[0])
		s += (x[0]*math.Log(x[0]) - x[0]) - (y[0]*l0 - y[0]) - l0*(x[0]-y[0])
		l1 := math.Log(y[1])
		s += (x[1]*math.Log(x[1]) - x[1]) - (y[1]*l1 - y[1]) - l1*(x[1]-y[1])
		l2 := math.Log(y[2])
		s += (x[2]*math.Log(x[2]) - x[2]) - (y[2]*l2 - y[2]) - l2*(x[2]-y[2])
		l3 := math.Log(y[3])
		s += (x[3]*math.Log(x[3]) - x[3]) - (y[3]*l3 - y[3]) - l3*(x[3]-y[3])
		x, y = x[4:], y[4:]
	}
	for i := 0; i < len(x) && i < len(y); i++ {
		ly := math.Log(y[i])
		s += (x[i]*math.Log(x[i]) - x[i]) - (y[i]*ly - y[i]) - ly*(x[i]-y[i])
	}
	return s
}

// gklPrep fills p1 = q·log q − q and p2 = log q.
func gklPrep(p1, p2, q []float64) {
	for i := 0; i < len(p1) && i < len(p2) && i < len(q); i++ {
		lq := math.Log(q[i])
		p1[i] = q[i]*lq - q[i]
		p2[i] = lq
	}
}

func gklPrepSum(x, q, p1, p2 []float64, bound float64) float64 {
	var s float64
	for len(x) >= 4 && len(q) >= 4 && len(p1) >= 4 && len(p2) >= 4 {
		s += (x[0]*math.Log(x[0]) - x[0]) - p1[0] - p2[0]*(x[0]-q[0])
		s += (x[1]*math.Log(x[1]) - x[1]) - p1[1] - p2[1]*(x[1]-q[1])
		s += (x[2]*math.Log(x[2]) - x[2]) - p1[2] - p2[2]*(x[2]-q[2])
		s += (x[3]*math.Log(x[3]) - x[3]) - p1[3] - p2[3]*(x[3]-q[3])
		x, q, p1, p2 = x[4:], q[4:], p1[4:], p2[4:]
		if s > bound {
			return s
		}
	}
	for i := 0; i < len(x) && i < len(q) && i < len(p1) && i < len(p2); i++ {
		s += (x[i]*math.Log(x[i]) - x[i]) - p1[i] - p2[i]*(x[i]-q[i])
	}
	return s
}

// gklGeo accumulates the fused geodesic divergences for φ(t) = t·log t − t.
// log q and log µ are exactly gq and gmu (∇f = log), so each coordinate
// costs one exp and one log instead of six transcendentals.
func gklGeo(gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64, ok bool) {
	a, b := 1-theta, theta
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := math.Exp(a*gq[i] + b*gmu[i])
		if math.IsInf(xt, 0) || math.IsNaN(xt) {
			return dQ, dMu, false
		}
		qv, mv := q[i], mu[i]
		lq := gq[i]
		lm := gmu[i]
		phiX := xt*math.Log(xt) - xt
		dQ += phiX - (qv*lq - qv) - lq*(xt-qv)
		dMu += phiX - (mv*lm - mv) - lm*(xt-mv)
	}
	return dQ, dMu, true
}

// ---------------------------------------------------------------------------
// Shannon entropy: φ(t) = t·log t
// ---------------------------------------------------------------------------

func shannonSum(x, y []float64) float64 {
	var s float64
	for len(x) >= 4 && len(y) >= 4 {
		l0 := math.Log(y[0])
		s += x[0]*math.Log(x[0]) - y[0]*l0 - (l0+1)*(x[0]-y[0])
		l1 := math.Log(y[1])
		s += x[1]*math.Log(x[1]) - y[1]*l1 - (l1+1)*(x[1]-y[1])
		l2 := math.Log(y[2])
		s += x[2]*math.Log(x[2]) - y[2]*l2 - (l2+1)*(x[2]-y[2])
		l3 := math.Log(y[3])
		s += x[3]*math.Log(x[3]) - y[3]*l3 - (l3+1)*(x[3]-y[3])
		x, y = x[4:], y[4:]
	}
	for i := 0; i < len(x) && i < len(y); i++ {
		ly := math.Log(y[i])
		s += x[i]*math.Log(x[i]) - y[i]*ly - (ly+1)*(x[i]-y[i])
	}
	return s
}

// shannonPrep fills p1 = q·log q and p2 = log q + 1.
func shannonPrep(p1, p2, q []float64) {
	for i := 0; i < len(p1) && i < len(p2) && i < len(q); i++ {
		lq := math.Log(q[i])
		p1[i] = q[i] * lq
		p2[i] = lq + 1
	}
}

func shannonPrepSum(x, q, p1, p2 []float64, bound float64) float64 {
	var s float64
	for len(x) >= 4 && len(q) >= 4 && len(p1) >= 4 && len(p2) >= 4 {
		s += x[0]*math.Log(x[0]) - p1[0] - p2[0]*(x[0]-q[0])
		s += x[1]*math.Log(x[1]) - p1[1] - p2[1]*(x[1]-q[1])
		s += x[2]*math.Log(x[2]) - p1[2] - p2[2]*(x[2]-q[2])
		s += x[3]*math.Log(x[3]) - p1[3] - p2[3]*(x[3]-q[3])
		x, q, p1, p2 = x[4:], q[4:], p1[4:], p2[4:]
		if s > bound {
			return s
		}
	}
	for i := 0; i < len(x) && i < len(q) && i < len(p1) && i < len(p2); i++ {
		s += x[i]*math.Log(x[i]) - p1[i] - p2[i]*(x[i]-q[i])
	}
	return s
}

// shannonGeo accumulates the fused geodesic divergences for φ(t) = t·log t.
// log q and log µ are each computed once per coordinate and shared between
// the φ term and the (log+1) gradient factor (bit-identical CSE).
func shannonGeo(gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64, ok bool) {
	a, b := 1-theta, theta
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := math.Exp(a*gq[i] + b*gmu[i] - 1)
		if math.IsInf(xt, 0) || math.IsNaN(xt) {
			return dQ, dMu, false
		}
		qv, mv := q[i], mu[i]
		lq := math.Log(qv)
		lm := math.Log(mv)
		phiX := xt * math.Log(xt)
		dQ += phiX - qv*lq - (lq+1)*(xt-qv)
		dMu += phiX - mv*lm - (lm+1)*(xt-mv)
	}
	return dQ, dMu, true
}

// ---------------------------------------------------------------------------
// Burg entropy: φ(t) = −log t + t − 1
// ---------------------------------------------------------------------------

func burgSum(x, y []float64) float64 {
	var s float64
	for len(x) >= 4 && len(y) >= 4 {
		s += (-math.Log(x[0]) + x[0] - 1) - (-math.Log(y[0]) + y[0] - 1) - (1-1/y[0])*(x[0]-y[0])
		s += (-math.Log(x[1]) + x[1] - 1) - (-math.Log(y[1]) + y[1] - 1) - (1-1/y[1])*(x[1]-y[1])
		s += (-math.Log(x[2]) + x[2] - 1) - (-math.Log(y[2]) + y[2] - 1) - (1-1/y[2])*(x[2]-y[2])
		s += (-math.Log(x[3]) + x[3] - 1) - (-math.Log(y[3]) + y[3] - 1) - (1-1/y[3])*(x[3]-y[3])
		x, y = x[4:], y[4:]
	}
	for i := 0; i < len(x) && i < len(y); i++ {
		s += (-math.Log(x[i]) + x[i] - 1) - (-math.Log(y[i]) + y[i] - 1) - (1-1/y[i])*(x[i]-y[i])
	}
	return s
}

// burgPrep fills p1 = −log q + q − 1 and p2 = 1 − 1/q.
func burgPrep(p1, p2, q []float64) {
	for i := 0; i < len(p1) && i < len(p2) && i < len(q); i++ {
		p1[i] = -math.Log(q[i]) + q[i] - 1
		p2[i] = 1 - 1/q[i]
	}
}

func burgPrepSum(x, q, p1, p2 []float64, bound float64) float64 {
	var s float64
	for len(x) >= 4 && len(q) >= 4 && len(p1) >= 4 && len(p2) >= 4 {
		s += (-math.Log(x[0]) + x[0] - 1) - p1[0] - p2[0]*(x[0]-q[0])
		s += (-math.Log(x[1]) + x[1] - 1) - p1[1] - p2[1]*(x[1]-q[1])
		s += (-math.Log(x[2]) + x[2] - 1) - p1[2] - p2[2]*(x[2]-q[2])
		s += (-math.Log(x[3]) + x[3] - 1) - p1[3] - p2[3]*(x[3]-q[3])
		x, q, p1, p2 = x[4:], q[4:], p1[4:], p2[4:]
		if s > bound {
			return s
		}
	}
	for i := 0; i < len(x) && i < len(q) && i < len(p1) && i < len(p2); i++ {
		s += (-math.Log(x[i]) + x[i] - 1) - p1[i] - p2[i]*(x[i]-q[i])
	}
	return s
}

// burgGeo accumulates the fused geodesic divergences for φ(t)=−log t+t−1.
// The gradient factors (1 − 1/q) and (1 − 1/µ) are exactly gq and gmu;
// −log xt + xt − 1 is evaluated once and reused across both sums.
func burgGeo(gq, gmu, q, mu []float64, theta float64) (dQ, dMu float64, ok bool) {
	a, b := 1-theta, theta
	for i := 0; i < len(gq) && i < len(gmu) && i < len(q) && i < len(mu); i++ {
		xt := 1 / (1 - (a*gq[i] + b*gmu[i]))
		if math.IsInf(xt, 0) || math.IsNaN(xt) {
			return dQ, dMu, false
		}
		qv, mv := q[i], mu[i]
		phiX := -math.Log(xt) + xt - 1
		dQ += phiX - (-math.Log(qv) + qv - 1) - gq[i]*(xt-qv)
		dMu += phiX - (-math.Log(mv) + mv - 1) - gmu[i]*(xt-mv)
	}
	return dQ, dMu, true
}

// prepSlack sums the operand magnitudes of the per-coordinate expression
// φ(x)−p1−p2·(x−q) at x = q, the scale of its worst-case rounding error (see
// abandonBound). The |q|+1 part covers generators whose own evaluation
// cancels operands of that size (Burg's −log t + t − 1 at t = 1).
func prepSlack(p1, p2, q []float64) float64 {
	var m float64
	for i := 0; i < len(p1) && i < len(p2) && i < len(q); i++ {
		m += math.Abs(p1[i]) + math.Abs(p2[i]*q[i]) + math.Abs(q[i]) + 1
	}
	return m * abandonSlackEps
}

// ---------------------------------------------------------------------------
// Element-wise gradient maps (dst pre-sliced to len(y) by kernel.go).
// ---------------------------------------------------------------------------

func gradScaleLoop(dst, y []float64, c float64) {
	for len(dst) >= 4 && len(y) >= 4 {
		dst[0] = c * y[0]
		dst[1] = c * y[1]
		dst[2] = c * y[2]
		dst[3] = c * y[3]
		dst, y = dst[4:], y[4:]
	}
	for i := 0; i < len(dst) && i < len(y); i++ {
		dst[i] = c * y[i]
	}
}

func gradInvScaleLoop(dst, g []float64, c float64) {
	for len(dst) >= 4 && len(g) >= 4 {
		dst[0] = g[0] / c
		dst[1] = g[1] / c
		dst[2] = g[2] / c
		dst[3] = g[3] / c
		dst, g = dst[4:], g[4:]
	}
	for i := 0; i < len(dst) && i < len(g); i++ {
		dst[i] = g[i] / c
	}
}

func gradNegInvLoop(dst, y []float64) {
	for len(dst) >= 4 && len(y) >= 4 {
		dst[0] = -1 / y[0]
		dst[1] = -1 / y[1]
		dst[2] = -1 / y[2]
		dst[3] = -1 / y[3]
		dst, y = dst[4:], y[4:]
	}
	for i := 0; i < len(dst) && i < len(y); i++ {
		dst[i] = -1 / y[i]
	}
}

func gradExpLoop(dst, y []float64) {
	for i := 0; i < len(dst) && i < len(y); i++ {
		dst[i] = math.Exp(y[i])
	}
}

func gradLogLoop(dst, y []float64) {
	for i := 0; i < len(dst) && i < len(y); i++ {
		dst[i] = math.Log(y[i])
	}
}

func gradLogP1Loop(dst, y []float64) {
	for i := 0; i < len(dst) && i < len(y); i++ {
		dst[i] = math.Log(y[i]) + 1
	}
}

func gradExpM1Loop(dst, g []float64) {
	for i := 0; i < len(dst) && i < len(g); i++ {
		dst[i] = math.Exp(g[i] - 1)
	}
}

func gradBurgLoop(dst, y []float64) {
	for i := 0; i < len(dst) && i < len(y); i++ {
		dst[i] = 1 - 1/y[i]
	}
}

func gradBurgInvLoop(dst, g []float64) {
	for i := 0; i < len(dst) && i < len(g); i++ {
		dst[i] = 1 / (1 - g[i])
	}
}

// ---------------------------------------------------------------------------
// Block drivers: row-major streaming with the query side precomputed.
// The caller guarantees len(data) == len(out)·len(q); the row is carved
// off the front of data each iteration, which the prove-bounds pass
// understands without a check.
// ---------------------------------------------------------------------------

func l2Block(data, q, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		out[i] = l2Sum(row, q, math.Inf(1))
	}
}

func mahaBlock(w float64, data, q, p1, p2, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		s := mahaPrepSum(w, row, q, p1, p2, math.Inf(1))
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
}

func isBlock(data, q, p1, p2, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		s := isPrepSum(row, q, p1, p2, math.Inf(1))
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
}

func expBlock(data, q, p1, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		s := expPrepSum(row, q, p1, math.Inf(1))
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
}

func gklBlock(data, q, p1, p2, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		s := gklPrepSum(row, q, p1, p2, math.Inf(1))
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
}

func shannonBlock(data, q, p1, p2, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		s := shannonPrepSum(row, q, p1, p2, math.Inf(1))
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
}

func burgBlock(data, q, p1, p2, out []float64) {
	for i := 0; i < len(out); i++ {
		if len(data) < len(q) {
			break
		}
		row := data[:len(q):len(q)]
		data = data[len(q):]
		s := burgPrepSum(row, q, p1, p2, math.Inf(1))
		if s < 0 {
			s = 0
		}
		out[i] = s
	}
}
