// Package transform implements the paper's derivation-of-bound machinery
// (§4, Algorithms 1–4). After dimensionality partitioning, every data point
// x is transformed offline into per-subspace tuples P(x) = (αx, γx) and a
// query y online into per-subspace triples Q(y) = (αy, βyy, δy); the
// Cauchy–Schwarz upper bound of Theorem 1,
//
//	D_f(xi, yi) ≤ αx + αy + βyy + √(γx·δy),
//
// then costs O(1) per (point, subspace). Summed over subspaces it bounds the
// full-space divergence (Theorem 2), and the k-th smallest summed bound
// yields per-subspace range-query radii whose candidate union provably
// contains the kNN (Theorem 3).
package transform

import (
	"math"

	"brepartition/internal/bregman"
	"brepartition/internal/topk"
)

// PointTuple is P(x) = (αx, γx) for one subspace:
// αx = Σⱼ φ(xⱼ), γx = Σⱼ xⱼ² over the subspace's dimensions.
type PointTuple struct {
	Alpha float64
	Gamma float64
}

// QueryTriple is Q(y) = (αy, βyy, δy) for one subspace:
// αy = −Σⱼ φ(yⱼ), βyy = Σⱼ yⱼ·φ′(yⱼ), δy = Σⱼ φ′(yⱼ)².
type QueryTriple struct {
	Alpha  float64
	BetaYY float64
	Delta  float64
}

// UBCompute is Algorithm 1: the Theorem-1 upper bound from a point tuple
// and a query triple.
func UBCompute(p PointTuple, q QueryTriple) float64 {
	return p.Alpha + q.Alpha + q.BetaYY + math.Sqrt(p.Gamma*q.Delta)
}

// PTransform is Algorithm 2: transform a (partitioned) data point into one
// tuple per subspace. parts[i] lists the original dimension indices of
// subspace i.
func PTransform(div bregman.Divergence, x []float64, parts [][]int) []PointTuple {
	out := make([]PointTuple, len(parts))
	for i, dims := range parts {
		out[i] = PTransformSub(div, x, dims)
	}
	return out
}

// PTransformSub computes the tuple of a single subspace.
func PTransformSub(div bregman.Divergence, x []float64, dims []int) PointTuple {
	var t PointTuple
	for _, j := range dims {
		v := x[j]
		t.Alpha += div.Phi(v)
		t.Gamma += v * v
	}
	return t
}

// QTransform is Algorithm 3: transform a query into one triple per subspace.
func QTransform(div bregman.Divergence, y []float64, parts [][]int) []QueryTriple {
	return QTransformAppend(nil, div, y, parts)
}

// QTransformAppend is QTransform appending into dst — with sufficient
// capacity it allocates nothing (the pooled search context's path).
func QTransformAppend(dst []QueryTriple, div bregman.Divergence, y []float64, parts [][]int) []QueryTriple {
	for _, dims := range parts {
		dst = append(dst, QTransformSub(div, y, dims))
	}
	return dst
}

// QTransformSub computes the triple of a single subspace.
func QTransformSub(div bregman.Divergence, y []float64, dims []int) QueryTriple {
	var t QueryTriple
	for _, j := range dims {
		v := y[j]
		g := div.Grad(v)
		t.Alpha -= div.Phi(v)
		t.BetaYY += v * g
		t.Delta += g * g
	}
	return t
}

// SubspaceDistance computes the exact Bregman distance restricted to the
// subspace's dimensions (the quantity the upper bound dominates).
func SubspaceDistance(div bregman.Divergence, x, y []float64, dims []int) float64 {
	var s float64
	for _, j := range dims {
		s += div.Phi(x[j]) - div.Phi(y[j]) - div.Grad(y[j])*(x[j]-y[j])
	}
	if s < 0 {
		return 0
	}
	return s
}

// Bounds holds the outcome of Algorithm 4: the per-subspace searching
// radii taken from the point realizing the k-th smallest total upper bound.
type Bounds struct {
	// Radii[i] is the range-query radius for subspace i.
	Radii []float64
	// Total is the k-th smallest summed upper bound (the pruning
	// threshold in the original space).
	Total float64
	// PointID identifies the data point whose bound components were
	// selected.
	PointID int
}

// QBDetermine is Algorithm 4: compute the summed upper bound for every
// point from precomputed tuples, select the k-th smallest in O(n log k),
// and return its per-subspace components as the searching radii.
//
// tuples[i] holds the per-subspace tuples of point i. QBDetermine
// allocates its selector and radii; QBDetermineInto takes pooled ones.
func QBDetermine(tuples [][]PointTuple, q []QueryTriple, k int) Bounds {
	n := len(tuples)
	if n == 0 {
		return Bounds{}
	}
	sel := topk.New(min(k, n))
	return QBDetermineInto(tuples, q, sel, make([]float64, len(q)))
}

// QBDetermineInto is QBDetermine with caller-owned state: sel (already
// sized to the effective k, reusable via ResetK) selects the k-th smallest
// summed bound, and radii (len == number of subspaces) receives the
// selected point's per-subspace components. The returned Bounds aliases
// radii. With a pooled selector and radii buffer it allocates nothing:
// the k-th smallest item is read off the selector's max-heap root instead
// of a sorted copy.
func QBDetermineInto(tuples [][]PointTuple, q []QueryTriple, sel *topk.Selector, radii []float64) Bounds {
	if len(tuples) == 0 {
		return Bounds{}
	}
	for i, pt := range tuples {
		var total float64
		for j := range q {
			total += UBCompute(pt[j], q[j])
		}
		sel.Offer(i, total)
	}
	kth, _ := sel.MaxItem()

	for j := range q {
		radii[j] = UBCompute(tuples[kth.ID][j], q[j])
	}
	return Bounds{Radii: radii, Total: kth.Score, PointID: kth.ID}
}

// QBDetermineFilterInto is QBDetermineInto restricted to the points keep
// admits: only admitted points are offered to the selector, so the
// returned radii come from the k-th smallest summed bound *among the
// matching points*. That restriction is what makes filtered search exact:
// the k-th matching neighbour can lie beyond the unfiltered k-th bound,
// so reusing unfiltered radii would prune matches away. When fewer than k
// points match, the largest admitted bound is returned — a radius that
// covers every match, which is all a filtered query can answer with.
// ok is false when no point matched (the caller answers empty).
func QBDetermineFilterInto(tuples [][]PointTuple, q []QueryTriple, sel *topk.Selector, radii []float64, keep func(id int) bool) (Bounds, bool) {
	if len(tuples) == 0 {
		return Bounds{}, false
	}
	for i, pt := range tuples {
		if !keep(i) {
			continue
		}
		var total float64
		for j := range q {
			total += UBCompute(pt[j], q[j])
		}
		sel.Offer(i, total)
	}
	kth, ok := sel.MaxItem()
	if !ok {
		return Bounds{}, false
	}
	for j := range q {
		radii[j] = UBCompute(tuples[kth.ID][j], q[j])
	}
	return Bounds{Radii: radii, Total: kth.Score, PointID: kth.ID}, true
}

// ---------------------------------------------------------------------------
// Full-space quantities for the approximate extension (§8).
// ---------------------------------------------------------------------------

// BetaXY returns βxy = −Σⱼ xⱼ·φ′(yⱼ), the random variable whose
// distribution Proposition 1 models.
func BetaXY(div bregman.Divergence, x, y []float64) float64 {
	var s float64
	for j := range x {
		s += x[j] * div.Grad(y[j])
	}
	return -s
}

// KappaMu returns the κ + µ decomposition of the full-space exact bound:
// κ = Σφ(x) − Σφ(y) + Σ y·φ′(y) (unaffected by the Cauchy relaxation) and
// µ = √(Σx² · Σφ′(y)²) (the relaxed magnitude of βxy).
func KappaMu(div bregman.Divergence, x, y []float64) (kappa, mu float64) {
	var fx, fy, yy, xx, gg float64
	for j := range x {
		fx += div.Phi(x[j])
		fy += div.Phi(y[j])
		g := div.Grad(y[j])
		yy += y[j] * g
		xx += x[j] * x[j]
		gg += g * g
	}
	return fx - fy + yy, math.Sqrt(xx * gg)
}

// UpperBoundFull returns the full-space Theorem-2 bound Σᵢ UB(xi, yi)
// directly from a point's tuples and a query's triples.
func UpperBoundFull(tuples []PointTuple, q []QueryTriple) float64 {
	var total float64
	for j := range q {
		total += UBCompute(tuples[j], q[j])
	}
	return total
}
