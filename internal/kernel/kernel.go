// Package kernel provides monomorphized Bregman-divergence distance kernels
// over flat, row-major point storage. It is the hot inner layer of the
// search path: every distance the system evaluates in bulk — BB-tree leaf
// scans, node-bound geodesic projections, candidate refinement, brute-force
// ground truth — goes through a concrete (non-interface) kernel chosen once
// per index or per query, instead of paying two virtual calls (Phi, Grad)
// per coordinate per point through the bregman.Divergence interface.
//
// Numerical contract: every kernel reproduces bregman.Distance's arithmetic
// bit for bit — the same per-coordinate expression φ(x)−φ(y)−φ′(y)(x−y)
// with inlined generator math, summed left to right through a single
// ordered accumulator and clamped at 0 — with one documented exception: the
// squared-Euclidean kernel uses the fused closed form Σ(x−y)² with four
// independent accumulator chains, which differs from the scalar three-term
// expansion by rounding (≈1 ULP on benign data). All search paths route
// through the same kernel, so results stay internally consistent; the
// property tests in kernel_test.go pin bit equality for every other
// divergence and a tight relative tolerance for L2.
//
// Two structural rules keep the contract honest while making the loops
// fast:
//
//   - This file owns validation and dispatch; loops.go owns arithmetic.
//     Every function in loops.go compiles with zero bounds checks
//     (enforced by the ssa/check_bce CI step) and performs the
//     per-coordinate expressions in the oracle's exact order.
//   - Query-side subexpressions (log q, exp q, 1/q, …) are loop-invariant
//     across a block scan or a refinement pass. PrepQuery hoists them once
//     per query; DistancesTo and DistancePrep then read the precomputed
//     values instead of recomputing them per point. Reading a stored
//     float64 instead of re-deriving it from the same input is
//     bit-identical, so hoisting never changes a result.
//   - A distance is a sum of per-coordinate terms that convexity makes
//     non-negative, so a partial sum above a limit settles "farther than the
//     limit" without the remaining coordinates. DistancePrepBound stops
//     there; DistancePrep is its +Inf-limit call, one loop for both.
package kernel

import (
	"math"
	"unsafe"

	"brepartition/internal/bregman"
	"brepartition/internal/vecmath"
)

// FlatBlock is a contiguous row-major block of N points with Dim
// coordinates each: point i occupies Data[i*Dim : (i+1)*Dim]. It is the
// storage format of the disk store's page arena and the BB-tree's subspace
// arena, and the unit the batched kernels stream over.
type FlatBlock struct {
	Data []float64
	Dim  int
	N    int
}

// Row returns point i's coordinates as a full-capacity-clamped view into
// the block (appends can never bleed into the next row).
func (b FlatBlock) Row(i int) []float64 {
	off := i * b.Dim
	return b.Data[off : off+b.Dim : off+b.Dim]
}

// Slice returns the sub-block of rows [lo, hi).
func (b FlatBlock) Slice(lo, hi int) FlatBlock {
	return FlatBlock{Data: b.Data[lo*b.Dim : hi*b.Dim], Dim: b.Dim, N: hi - lo}
}

// Flatten copies points into a fresh row-major block. All rows must share
// one dimensionality; Flatten panics otherwise (a programming error on the
// construction path).
func Flatten(points [][]float64) FlatBlock {
	if len(points) == 0 {
		return FlatBlock{}
	}
	dim := len(points[0])
	data := make([]float64, len(points)*dim)
	for i, p := range points {
		if len(p) != dim {
			panic("kernel: ragged point set")
		}
		copy(data[i*dim:], p)
	}
	return FlatBlock{Data: data, Dim: dim, N: len(points)}
}

// Kernel is one divergence's batched evaluation surface. Implementations
// are concrete structs so every method body dispatches straight into the
// unrolled, bounds-check-free loops in loops.go; the interface is crossed
// once per block or per vector, never per coordinate.
//
// All methods follow bregman's conventions: Distance computes D_f(x, y)
// (first argument is the data point), no domain checking is performed
// (callers validate at the API boundary), and negative roundoff is clamped
// to 0 exactly as bregman.Distance does.
type Kernel interface {
	// Name returns the underlying divergence's registry name.
	Name() string
	// Divergence returns the divergence this kernel evaluates.
	Divergence() bregman.Divergence

	// Distance computes D_f(x, y). It panics on a length mismatch, like
	// bregman.Distance.
	Distance(x, y []float64) float64

	// DistancesTo evaluates the query against a block in one pass:
	// out[i] = D_f(block.Row(i), q) for i < block.N, bit-identical to
	// Distance(block.Row(i), q) for every kernel (including L2, whose
	// Distance shares the same fused sum).
	//
	// Contract — violations panic, they do not silently misbehave:
	//   - len(q) == block.Dim
	//   - len(out) >= block.N; out may be longer, in which case only
	//     out[:block.N] is written and the tail is left untouched
	//   - len(block.Data) >= block.N*block.Dim
	//   - out must not alias block.Data or q: implementations stream
	//     block rows while writing out, so an aliasing destination would
	//     corrupt later rows (or the query) before they are read.
	DistancesTo(q []float64, block FlatBlock, out []float64)

	// QueryScratchLen returns the scratch length PrepQuery requires for a
	// d-dimensional query; 0 when the kernel has no query-side invariants
	// worth hoisting.
	QueryScratchLen(d int) int

	// PrepQuery precomputes the query-side invariants of Distance
	// (log q, exp q, 1/q, …) into scratch, which must have
	// len >= QueryScratchLen(len(q)). The layout is kernel-private; the
	// result is consumed by DistancePrep for the same q.
	PrepQuery(scratch, q []float64)

	// DistancePrep computes D_f(x, q) bit-identically to Distance(x, q),
	// reading the query-side terms from scratch as filled by PrepQuery.
	// Callers amortize one PrepQuery over many DistancePrep calls when
	// scanning one query against points not in flat-block form.
	DistancePrep(x, q, scratch []float64) float64

	// DistancePrepBound is DistancePrep for callers that only care about
	// distances up to limit (a selector's current k-th score, a range
	// radius): whenever DistancePrep(x, q, scratch) ≤ limit it returns
	// that value bit for bit, and otherwise it returns some value > limit
	// — possibly a partial sum, abandoned as soon as it proves the
	// distance exceeds the limit. The monomorphized kernels abandon
	// against abandonBound(limit, …); the generic kernel never abandons.
	// A NaN or +Inf limit disables abandoning.
	DistancePrepBound(x, q, scratch []float64, limit float64) float64

	// GradVec writes ∇f(y) into dst element-wise. dst must have
	// len >= len(y) (panics otherwise); only dst[:len(y)] is written.
	GradVec(dst, y []float64)

	// GradInvVec writes (∇f)⁻¹(g) into dst element-wise, under the same
	// length contract as GradVec.
	GradInvVec(dst, g []float64)

	// GeodesicStep evaluates the dual-space geodesic point
	// x(θ) = (∇f)⁻¹((1−θ)·gq + θ·gmu) and returns its divergences to the
	// query and the ball center, dQ = D_f(x(θ), q) and dMu = D_f(x(θ), mu),
	// without materializing x(θ) (concrete kernels keep it in registers).
	// gq and gmu MUST be this kernel's GradVec outputs for q and mu
	// respectively: the fused kernels reuse the transcendental values the
	// gradients already hold (e.g. exp's gq[j] = e^q[j]) in place of
	// recomputing them, which is bit-identical exactly because GradVec
	// computed them from the same inputs. ok is false when x(θ) is not
	// finite, in which case the caller must abandon the bound (matching
	// bbtree's finiteVec guard). scratch, when the implementation needs
	// it (the generic fallback), must have len >= len(q); concrete
	// kernels ignore it.
	GeodesicStep(gq, gmu, q, mu []float64, theta float64, scratch []float64) (dQ, dMu float64, ok bool)
}

// For returns the monomorphized kernel for div when one is registered
// (squared Euclidean, Mahalanobis, Itakura–Saito, exponential, generalized
// KL, Shannon entropy, Burg entropy), and the generic interface-dispatching
// fallback otherwise. The choice is made once; hot loops never re-dispatch.
func For(div bregman.Divergence) Kernel {
	switch d := div.(type) {
	case bregman.SquaredEuclidean:
		return l2Kernel{}
	case bregman.Mahalanobis:
		return mahalanobisKernel{w: d.W}
	case bregman.ItakuraSaito:
		return isKernel{}
	case bregman.Exponential:
		return expKernel{}
	case bregman.GeneralizedKL:
		return gklKernel{}
	case bregman.ShannonEntropy:
		return shannonKernel{}
	case bregman.BurgEntropy:
		return burgKernel{}
	default:
		return Generic(div)
	}
}

// Generic wraps any bregman.Divergence in the interface-dispatching
// fallback kernel. It is bit-identical to the scalar helpers in package
// bregman (it calls them), at the old per-coordinate virtual-call cost.
func Generic(div bregman.Divergence) Kernel { return genericKernel{div: div} }

// clamp0 applies bregman.Distance's non-negativity clamp.
func clamp0(s float64) float64 {
	if s < 0 {
		return 0
	}
	return s
}

// Abandon margin. Mathematically every per-coordinate term is ≥ 0, so a
// partial sum can only grow; in floating point a term φ(x)−p1−p2·(x−q) can
// round slightly negative where x ≈ q (its operands cancel), by at most a few
// ulps of the operand magnitudes, and each accumulation rounds by one ulp of
// the running sum. abandonBound widens the limit by both: a relative
// abandonRelEps (dominates d accumulation roundings for any d < 2²⁰) plus the
// query's absolute slack, abandonSlackEps = 32 ulps of the summed operand
// magnitudes (prepSlack, stored by PrepQuery behind the hoisted terms). A
// partial sum above the widened limit therefore implies the completed sum
// exceeds the limit itself. Squared Euclidean needs no margin: its terms are
// squares, exactly ≥ 0, and its accumulators only grow.
const (
	abandonRelEps   = 0x1p-32
	abandonSlackEps = 0x1p-48
)

func abandonBound(limit, slack float64) float64 {
	return limit + (limit*abandonRelEps + slack)
}

// finite2 reports whether both accumulators are finite; an infinite or NaN
// geodesic point surfaces as a non-finite divergence on at least one side.
func finite2(a, b float64) bool {
	return !math.IsInf(a, 0) && !math.IsNaN(a) && !math.IsInf(b, 0) && !math.IsNaN(b)
}

// hoistCap bounds the dimensionality served by the stack-resident prep
// buffers in DistancesTo. Blocks with Dim above it (or with fewer than
// hoistMinRows rows, where the prep pass wouldn't amortize) take the
// per-row Distance fallback, which is bit-identical.
const (
	hoistCap     = 512
	hoistMinRows = 4
)

// overlaps reports whether two slices share any backing memory.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(&a[0]))
	a1 := a0 + uintptr(len(a))*unsafe.Sizeof(a[0])
	b0 := uintptr(unsafe.Pointer(&b[0]))
	b1 := b0 + uintptr(len(b))*unsafe.Sizeof(b[0])
	return a0 < b1 && b0 < a1
}

// checkDistancesTo enforces the DistancesTo contract documented on the
// Kernel interface. The checks run once per block — never per coordinate —
// so the hot loops can drop their own bounds checks safely.
func checkDistancesTo(q []float64, block FlatBlock, out []float64) {
	if len(q) != block.Dim {
		panic("kernel: DistancesTo query length does not match block.Dim")
	}
	if len(out) < block.N {
		panic("kernel: DistancesTo out shorter than block.N")
	}
	if len(block.Data) < block.N*block.Dim {
		panic("kernel: DistancesTo block data shorter than N*Dim")
	}
	if overlaps(out, block.Data) || overlaps(out, q) {
		panic("kernel: DistancesTo out aliases block or query memory")
	}
}

// checkGrad enforces the GradVec/GradInvVec destination-length contract.
func checkGrad(dst, src []float64) {
	if len(dst) < len(src) {
		panic("kernel: gradient dst shorter than input")
	}
}

// checkPrep enforces DistancePrep's length contracts: x and q must match
// (as in Distance) and scratch must hold the kernel's prepared terms.
func checkPrep(x, q, scratch []float64, need int) {
	if len(x) != len(q) {
		panic("bregman: dimension mismatch")
	}
	if len(scratch) < need {
		panic("kernel: DistancePrep scratch shorter than QueryScratchLen")
	}
}

// ---------------------------------------------------------------------------
// Squared Euclidean: φ(t) = t². The one kernel allowed to deviate from the
// scalar op order — the fused closed form Σ(x−y)² runs in 3 FLOPs per
// coordinate instead of 8 and is exact at x = y. Distance, DistancePrep and
// DistancesTo all route through l2Sum, so they agree bit for bit with each
// other even where they differ from the oracle by rounding.
// ---------------------------------------------------------------------------

type l2Kernel struct{}

func (l2Kernel) Name() string                   { return "l2" }
func (l2Kernel) Divergence() bregman.Divergence { return bregman.SquaredEuclidean{} }

func (k l2Kernel) Distance(x, y []float64) float64 {
	return k.DistancePrepBound(x, y, nil, math.Inf(1))
}

func (l2Kernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	l2Block(block.Data, q, out[:block.N])
}

func (l2Kernel) QueryScratchLen(int) int  { return 0 }
func (l2Kernel) PrepQuery(_, _ []float64) {}
func (k l2Kernel) DistancePrep(x, q, _ []float64) float64 {
	return k.Distance(x, q)
}

func (l2Kernel) DistancePrepBound(x, q, _ []float64, limit float64) float64 {
	if len(x) != len(q) {
		panic("bregman: dimension mismatch")
	}
	return l2Sum(x, q, limit)
}

func (l2Kernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradScaleLoop(dst[:len(y)], y, 2)
}

func (l2Kernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradInvScaleLoop(dst[:len(g)], g, 2)
}

func (l2Kernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu = l2Geo(gq, gmu, q, mu, theta)
	return dQ, dMu, finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Mahalanobis (uniform diagonal weight): φ(t) = w·t². Scalar op order kept
// bit-identical to bregman.Distance.
// ---------------------------------------------------------------------------

type mahalanobisKernel struct{ w float64 }

func (mahalanobisKernel) Name() string                     { return "mahalanobis" }
func (k mahalanobisKernel) Divergence() bregman.Divergence { return bregman.Mahalanobis{W: k.w} }

func (k mahalanobisKernel) Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("bregman: dimension mismatch")
	}
	return clamp0(mahaSum(k.w, x, y))
}

func (k mahalanobisKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	if block.Dim <= hoistCap && block.N >= hoistMinRows {
		var buf [2 * hoistCap]float64
		p1, p2 := buf[:block.Dim], buf[hoistCap:hoistCap+block.Dim]
		mahaPrep(k.w, p1, p2, q)
		mahaBlock(k.w, block.Data, q, p1, p2, out[:block.N])
		return
	}
	for i := 0; i < block.N; i++ {
		out[i] = k.Distance(block.Row(i), q)
	}
}

func (mahalanobisKernel) QueryScratchLen(d int) int { return 2*d + 1 }

func (k mahalanobisKernel) PrepQuery(scratch, q []float64) {
	d := len(q)
	mahaPrep(k.w, scratch[:d], scratch[d:2*d], q)
	scratch[2*d] = prepSlack(scratch[:d], scratch[d:2*d], q)
}

func (k mahalanobisKernel) DistancePrep(x, q, scratch []float64) float64 {
	return k.DistancePrepBound(x, q, scratch, math.Inf(1))
}

func (k mahalanobisKernel) DistancePrepBound(x, q, scratch []float64, limit float64) float64 {
	d := len(q)
	checkPrep(x, q, scratch, 2*d+1)
	return clamp0(mahaPrepSum(k.w, x, q, scratch[:d], scratch[d:2*d], abandonBound(limit, scratch[2*d])))
}

func (k mahalanobisKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradScaleLoop(dst[:len(y)], y, 2*k.w)
}

func (k mahalanobisKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradInvScaleLoop(dst[:len(g)], g, 2*k.w)
}

func (k mahalanobisKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu = mahaGeo(k.w, gq, gmu, q, mu, theta)
	return clamp0(dQ), clamp0(dMu), finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Itakura–Saito: φ(t) = −log t, φ′(t) = −1/t. Bit-identical op order.
// ---------------------------------------------------------------------------

type isKernel struct{}

func (isKernel) Name() string                   { return "is" }
func (isKernel) Divergence() bregman.Divergence { return bregman.ItakuraSaito{} }

func (isKernel) Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("bregman: dimension mismatch")
	}
	return clamp0(isSum(x, y))
}

func (k isKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	if block.Dim <= hoistCap && block.N >= hoistMinRows {
		var buf [2 * hoistCap]float64
		p1, p2 := buf[:block.Dim], buf[hoistCap:hoistCap+block.Dim]
		isPrep(p1, p2, q)
		isBlock(block.Data, q, p1, p2, out[:block.N])
		return
	}
	for i := 0; i < block.N; i++ {
		out[i] = k.Distance(block.Row(i), q)
	}
}

func (isKernel) QueryScratchLen(d int) int { return 2*d + 1 }

func (isKernel) PrepQuery(scratch, q []float64) {
	d := len(q)
	isPrep(scratch[:d], scratch[d:2*d], q)
	scratch[2*d] = prepSlack(scratch[:d], scratch[d:2*d], q)
}

func (k isKernel) DistancePrep(x, q, scratch []float64) float64 {
	return k.DistancePrepBound(x, q, scratch, math.Inf(1))
}

func (isKernel) DistancePrepBound(x, q, scratch []float64, limit float64) float64 {
	d := len(q)
	checkPrep(x, q, scratch, 2*d+1)
	return clamp0(isPrepSum(x, q, scratch[:d], scratch[d:2*d], abandonBound(limit, scratch[2*d])))
}

func (isKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradNegInvLoop(dst[:len(y)], y)
}

func (isKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradNegInvLoop(dst[:len(g)], g)
}

func (isKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu, ok = isGeo(gq, gmu, q, mu, theta)
	if !ok {
		return dQ, dMu, false
	}
	return clamp0(dQ), clamp0(dMu), finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Exponential: φ(t) = eᵗ, φ′(t) = eᵗ. Bit-identical op order; the two
// query-side exponentials per coordinate are hoisted by PrepQuery, halving
// the math.Exp count on the block scan path.
// ---------------------------------------------------------------------------

type expKernel struct{}

func (expKernel) Name() string                   { return "exp" }
func (expKernel) Divergence() bregman.Divergence { return bregman.Exponential{} }

func (expKernel) Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("bregman: dimension mismatch")
	}
	return clamp0(expSum(x, y))
}

func (k expKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	if block.Dim <= hoistCap && block.N >= hoistMinRows {
		var buf [hoistCap]float64
		p1 := buf[:block.Dim]
		expPrep(p1, q)
		expBlock(block.Data, q, p1, out[:block.N])
		return
	}
	for i := 0; i < block.N; i++ {
		out[i] = k.Distance(block.Row(i), q)
	}
}

func (expKernel) QueryScratchLen(d int) int { return d + 1 }

func (expKernel) PrepQuery(scratch, q []float64) {
	d := len(q)
	expPrep(scratch[:d], q)
	// φ′ = φ = exp: the gradient factor is the hoisted term itself.
	scratch[d] = prepSlack(scratch[:d], scratch[:d], q)
}

func (k expKernel) DistancePrep(x, q, scratch []float64) float64 {
	return k.DistancePrepBound(x, q, scratch, math.Inf(1))
}

func (expKernel) DistancePrepBound(x, q, scratch []float64, limit float64) float64 {
	d := len(q)
	checkPrep(x, q, scratch, d+1)
	return clamp0(expPrepSum(x, q, scratch[:d], abandonBound(limit, scratch[d])))
}

func (expKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradExpLoop(dst[:len(y)], y)
}

func (expKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradLogLoop(dst[:len(g)], g)
}

func (expKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu, ok = expGeo(gq, gmu, q, mu, theta)
	if !ok {
		return dQ, dMu, false
	}
	return clamp0(dQ), clamp0(dMu), finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Generalized KL: φ(t) = t·log t − t, φ′(t) = log t. Bit-identical op order.
// ---------------------------------------------------------------------------

type gklKernel struct{}

func (gklKernel) Name() string                   { return "gkl" }
func (gklKernel) Divergence() bregman.Divergence { return bregman.GeneralizedKL{} }

func (gklKernel) Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("bregman: dimension mismatch")
	}
	return clamp0(gklSum(x, y))
}

func (k gklKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	if block.Dim <= hoistCap && block.N >= hoistMinRows {
		var buf [2 * hoistCap]float64
		p1, p2 := buf[:block.Dim], buf[hoistCap:hoistCap+block.Dim]
		gklPrep(p1, p2, q)
		gklBlock(block.Data, q, p1, p2, out[:block.N])
		return
	}
	for i := 0; i < block.N; i++ {
		out[i] = k.Distance(block.Row(i), q)
	}
}

func (gklKernel) QueryScratchLen(d int) int { return 2*d + 1 }

func (gklKernel) PrepQuery(scratch, q []float64) {
	d := len(q)
	gklPrep(scratch[:d], scratch[d:2*d], q)
	scratch[2*d] = prepSlack(scratch[:d], scratch[d:2*d], q)
}

func (k gklKernel) DistancePrep(x, q, scratch []float64) float64 {
	return k.DistancePrepBound(x, q, scratch, math.Inf(1))
}

func (gklKernel) DistancePrepBound(x, q, scratch []float64, limit float64) float64 {
	d := len(q)
	checkPrep(x, q, scratch, 2*d+1)
	return clamp0(gklPrepSum(x, q, scratch[:d], scratch[d:2*d], abandonBound(limit, scratch[2*d])))
}

func (gklKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradLogLoop(dst[:len(y)], y)
}

func (gklKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradExpLoop(dst[:len(g)], g)
}

func (gklKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu, ok = gklGeo(gq, gmu, q, mu, theta)
	if !ok {
		return dQ, dMu, false
	}
	return clamp0(dQ), clamp0(dMu), finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Shannon entropy: φ(t) = t·log t, φ′(t) = log t + 1. Bit-identical.
// ---------------------------------------------------------------------------

type shannonKernel struct{}

func (shannonKernel) Name() string                   { return "shannon" }
func (shannonKernel) Divergence() bregman.Divergence { return bregman.ShannonEntropy{} }

func (shannonKernel) Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("bregman: dimension mismatch")
	}
	return clamp0(shannonSum(x, y))
}

func (k shannonKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	if block.Dim <= hoistCap && block.N >= hoistMinRows {
		var buf [2 * hoistCap]float64
		p1, p2 := buf[:block.Dim], buf[hoistCap:hoistCap+block.Dim]
		shannonPrep(p1, p2, q)
		shannonBlock(block.Data, q, p1, p2, out[:block.N])
		return
	}
	for i := 0; i < block.N; i++ {
		out[i] = k.Distance(block.Row(i), q)
	}
}

func (shannonKernel) QueryScratchLen(d int) int { return 2*d + 1 }

func (shannonKernel) PrepQuery(scratch, q []float64) {
	d := len(q)
	shannonPrep(scratch[:d], scratch[d:2*d], q)
	scratch[2*d] = prepSlack(scratch[:d], scratch[d:2*d], q)
}

func (k shannonKernel) DistancePrep(x, q, scratch []float64) float64 {
	return k.DistancePrepBound(x, q, scratch, math.Inf(1))
}

func (shannonKernel) DistancePrepBound(x, q, scratch []float64, limit float64) float64 {
	d := len(q)
	checkPrep(x, q, scratch, 2*d+1)
	return clamp0(shannonPrepSum(x, q, scratch[:d], scratch[d:2*d], abandonBound(limit, scratch[2*d])))
}

func (shannonKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradLogP1Loop(dst[:len(y)], y)
}

func (shannonKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradExpM1Loop(dst[:len(g)], g)
}

func (shannonKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu, ok = shannonGeo(gq, gmu, q, mu, theta)
	if !ok {
		return dQ, dMu, false
	}
	return clamp0(dQ), clamp0(dMu), finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Burg entropy: φ(t) = −log t + t − 1, φ′(t) = 1 − 1/t. Bit-identical.
// ---------------------------------------------------------------------------

type burgKernel struct{}

func (burgKernel) Name() string                   { return "burg" }
func (burgKernel) Divergence() bregman.Divergence { return bregman.BurgEntropy{} }

func (burgKernel) Distance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("bregman: dimension mismatch")
	}
	return clamp0(burgSum(x, y))
}

func (k burgKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	if block.Dim <= hoistCap && block.N >= hoistMinRows {
		var buf [2 * hoistCap]float64
		p1, p2 := buf[:block.Dim], buf[hoistCap:hoistCap+block.Dim]
		burgPrep(p1, p2, q)
		burgBlock(block.Data, q, p1, p2, out[:block.N])
		return
	}
	for i := 0; i < block.N; i++ {
		out[i] = k.Distance(block.Row(i), q)
	}
}

func (burgKernel) QueryScratchLen(d int) int { return 2*d + 1 }

func (burgKernel) PrepQuery(scratch, q []float64) {
	d := len(q)
	burgPrep(scratch[:d], scratch[d:2*d], q)
	scratch[2*d] = prepSlack(scratch[:d], scratch[d:2*d], q)
}

func (k burgKernel) DistancePrep(x, q, scratch []float64) float64 {
	return k.DistancePrepBound(x, q, scratch, math.Inf(1))
}

func (burgKernel) DistancePrepBound(x, q, scratch []float64, limit float64) float64 {
	d := len(q)
	checkPrep(x, q, scratch, 2*d+1)
	return clamp0(burgPrepSum(x, q, scratch[:d], scratch[d:2*d], abandonBound(limit, scratch[2*d])))
}

func (burgKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	gradBurgLoop(dst[:len(y)], y)
}

func (burgKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	gradBurgInvLoop(dst[:len(g)], g)
}

func (burgKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, _ []float64) (dQ, dMu float64, ok bool) {
	dQ, dMu, ok = burgGeo(gq, gmu, q, mu, theta)
	if !ok {
		return dQ, dMu, false
	}
	return clamp0(dQ), clamp0(dMu), finite2(dQ, dMu)
}

// ---------------------------------------------------------------------------
// Generic fallback: any bregman.Divergence, at interface-dispatch cost.
// ---------------------------------------------------------------------------

type genericKernel struct{ div bregman.Divergence }

func (k genericKernel) Name() string                   { return k.div.Name() }
func (k genericKernel) Divergence() bregman.Divergence { return k.div }

func (k genericKernel) Distance(x, y []float64) float64 {
	return bregman.Distance(k.div, x, y)
}

func (k genericKernel) DistancesTo(q []float64, block FlatBlock, out []float64) {
	checkDistancesTo(q, block, out)
	dim := block.Dim
	for i := 0; i < block.N; i++ {
		out[i] = bregman.Distance(k.div, block.Data[i*dim:(i+1)*dim], q)
	}
}

func (genericKernel) QueryScratchLen(int) int  { return 0 }
func (genericKernel) PrepQuery(_, _ []float64) {}

func (k genericKernel) DistancePrep(x, q, _ []float64) float64 {
	return bregman.Distance(k.div, x, q)
}

func (k genericKernel) DistancePrepBound(x, q, _ []float64, _ float64) float64 {
	return bregman.Distance(k.div, x, q)
}

func (k genericKernel) GradVec(dst, y []float64) {
	checkGrad(dst, y)
	bregman.GradVec(k.div, dst, y)
}

func (k genericKernel) GradInvVec(dst, g []float64) {
	checkGrad(dst, g)
	bregman.GradInvVec(k.div, dst, g)
}

func (k genericKernel) GeodesicStep(gq, gmu, q, mu []float64, theta float64, scratch []float64) (dQ, dMu float64, ok bool) {
	// The reference sequence the fused kernels collapse: interpolate in
	// gradient space (alloc-free into the caller's scratch), invert, and
	// measure both divergences from the materialized geodesic point.
	xt := scratch[:len(q)]
	vecmath.LerpInto(xt, gq, gmu, theta)
	bregman.GradInvVec(k.div, xt, xt)
	for _, v := range xt {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return 0, 0, false
		}
	}
	dQ = bregman.Distance(k.div, xt, q)
	dMu = bregman.Distance(k.div, xt, mu)
	return dQ, dMu, finite2(dQ, dMu)
}
