// Package partition implements the paper's dimensionality partitioning
// (§5): the equal/contiguous baseline, the Pearson Correlation
// Coefficient-based Partition (PCCP) heuristic that spreads highly
// correlated dimensions across subspaces (§5.2), and the Theorem-4 cost
// model that derives the optimized number of partitions M from the fitted
// exponential bound decay UB = A·αᴹ and pruning proportionality λ = β·UB
// (§5.1).
package partition

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"brepartition/internal/bregman"
	"brepartition/internal/transform"
	"brepartition/internal/vecmath"
)

// Validate checks that parts is a partition of {0..d-1}: every dimension
// appears in exactly one subspace.
func Validate(parts [][]int, d int) error {
	seen := make([]bool, d)
	count := 0
	for i, dims := range parts {
		if len(dims) == 0 {
			return fmt.Errorf("partition: subspace %d is empty", i)
		}
		for _, j := range dims {
			if j < 0 || j >= d {
				return fmt.Errorf("partition: dimension %d out of range [0,%d)", j, d)
			}
			if seen[j] {
				return fmt.Errorf("partition: dimension %d assigned twice", j)
			}
			seen[j] = true
			count++
		}
	}
	if count != d {
		return fmt.Errorf("partition: %d of %d dimensions assigned", count, d)
	}
	return nil
}

// Equal returns the contiguous equal-size baseline: subspace i receives
// dimensions [i*⌈d/m⌉, ...). m is clamped to [1, d].
func Equal(d, m int) [][]int {
	m = clampM(d, m)
	size := (d + m - 1) / m
	parts := make([][]int, 0, m)
	for start := 0; start < d; start += size {
		end := start + size
		if end > d {
			end = d
		}
		dims := make([]int, end-start)
		for i := range dims {
			dims[i] = start + i
		}
		parts = append(parts, dims)
	}
	return parts
}

func clampM(d, m int) int {
	if m < 1 {
		return 1
	}
	if m > d {
		return d
	}
	return m
}

// PCCP implements the two-step heuristic of §5.2 on (a sample of) the data:
//
//  1. Assignment: greedily grow ⌈d/M⌉ groups of M dimensions each, always
//     adding the unassigned dimension with the largest |Pearson| correlation
//     to any dimension already in the current group (correlated dimensions
//     gather in the same group).
//  2. Partitioning: build M partitions by taking one dimension from every
//     group, so correlated dimensions land in different subspaces and the
//     per-subspace candidate sets overlap.
//
// sample bounds how many points are used for the correlation matrix
// (0 means min(n, 2000)); seed fixes the random choice of each group's
// first dimension, whose influence §9.3.3 measures.
func PCCP(points [][]float64, m, sample int, seed int64) [][]int {
	return PCCPWorkers(points, m, sample, seed, 1)
}

// PCCPWorkers is PCCP with the correlation matrix computed across workers
// goroutines. Every matrix entry is an independent pair computation, so
// the result is bit-identical at any worker count; the greedy grouping
// that follows is untouched.
func PCCPWorkers(points [][]float64, m, sample int, seed int64, workers int) [][]int {
	d := len(points[0])
	m = clampM(d, m)
	if m == d {
		return Equal(d, m)
	}
	corr := AbsCorrelationMatrixWorkers(points, sample, seed, workers)
	rng := rand.New(rand.NewSource(seed))

	assigned := make([]bool, d)
	remaining := d
	var groups [][]int
	for remaining > 0 {
		// Random unassigned starter.
		start := -1
		pick := rng.Intn(remaining)
		for j := 0; j < d; j++ {
			if !assigned[j] {
				if pick == 0 {
					start = j
					break
				}
				pick--
			}
		}
		group := []int{start}
		assigned[start] = true
		remaining--
		for len(group) < m && remaining > 0 {
			best, bestCorr := -1, -1.0
			for j := 0; j < d; j++ {
				if assigned[j] {
					continue
				}
				for _, g := range group {
					if c := corr[g][j]; c > bestCorr {
						bestCorr = c
						best = j
					}
				}
			}
			group = append(group, best)
			assigned[best] = true
			remaining--
		}
		groups = append(groups, group)
	}

	// Spread: partition p takes the p-th member of every group that has one.
	parts := make([][]int, m)
	for _, group := range groups {
		for pos, dim := range group {
			parts[pos%m] = append(parts[pos%m], dim)
		}
	}
	// Drop potential empty tails (cannot happen for d ≥ m, but keep safe).
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// AbsCorrelationMatrix computes |Pearson| between every pair of dimensions
// over a sample of the points.
func AbsCorrelationMatrix(points [][]float64, sample int, seed int64) [][]float64 {
	return AbsCorrelationMatrixWorkers(points, sample, seed, 1)
}

// AbsCorrelationMatrixWorkers fans the pair computations of the matrix's
// upper triangle across workers goroutines, striding rows so the work
// (row a costs d−a pairs) balances. Each entry is computed independently
// from the gathered columns — no shared accumulation — so the matrix is
// bit-identical at every worker count.
func AbsCorrelationMatrixWorkers(points [][]float64, sample int, seed int64, workers int) [][]float64 {
	n := len(points)
	d := len(points[0])
	if sample <= 0 || sample > n {
		sample = n
		if sample > 2000 {
			sample = 2000
		}
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)[:sample]

	cols := make([][]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, sample)
		for i, id := range idx {
			col[i] = points[id][j]
		}
		cols[j] = col
	}
	corr := make([][]float64, d)
	for j := range corr {
		corr[j] = make([]float64, d)
	}
	fillRows := func(start, stride int) {
		for a := start; a < d; a += stride {
			corr[a][a] = 1
			for b := a + 1; b < d; b++ {
				c := math.Abs(vecmath.Pearson(cols[a], cols[b]))
				corr[a][b] = c
				corr[b][a] = c
			}
		}
	}
	if workers <= 1 || d < 8 {
		fillRows(0, 1)
		return corr
	}
	if workers > d {
		workers = d
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fillRows(w, workers)
		}(w)
	}
	wg.Wait()
	return corr
}

// ---------------------------------------------------------------------------
// Cost model and Theorem 4 (§5.1).
// ---------------------------------------------------------------------------

// CostModel captures the fitted parameters of the online cost analysis:
// the exponential bound decay UB(M) = A·αᴹ and the pruning proportionality
// λ = β·UB (fraction of the dataset surviving the filter).
type CostModel struct {
	A     float64
	Alpha float64
	Beta  float64
	N     int
	D     int
}

// ErrFit reports an unusable model fit.
var ErrFit = errors.New("partition: cost model fit failed")

// FitCostModel fits (A, α, β) as §5.1 prescribes: UB(M) is measured at two
// partition counts on sampled point/query pairs to solve A·αᴹ, and β is the
// measured proportion of points within a sample's UB divided by that UB.
// samples bounds the number of sampled pairs (paper: 50).
func FitCostModel(div bregman.Divergence, points [][]float64, samples int, seed int64) (CostModel, error) {
	n := len(points)
	if n < 2 {
		return CostModel{}, ErrFit
	}
	d := len(points[0])
	if samples <= 0 {
		samples = 50
	}
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(seed))

	m1 := 2
	m2 := d / 4
	if m2 <= m1 {
		m2 = m1 + 1
	}
	if m2 > d {
		m2 = d
	}
	parts1 := Equal(d, m1)
	parts2 := Equal(d, m2)

	var ub1, ub2 float64
	type pair struct{ x, y int }
	pairs := make([]pair, samples)
	for i := range pairs {
		pairs[i] = pair{rng.Intn(n), rng.Intn(n)}
	}
	for _, pr := range pairs {
		x, y := points[pr.x], points[pr.y]
		q1 := transform.QTransform(div, y, parts1)
		p1 := transform.PTransform(div, x, parts1)
		ub1 += transform.UpperBoundFull(p1, q1)
		q2 := transform.QTransform(div, y, parts2)
		p2 := transform.PTransform(div, x, parts2)
		ub2 += transform.UpperBoundFull(p2, q2)
	}
	ub1 /= float64(samples)
	ub2 /= float64(samples)
	if ub1 <= 0 || ub2 <= 0 {
		return CostModel{}, fmt.Errorf("%w: non-positive mean bounds (%g, %g)", ErrFit, ub1, ub2)
	}

	alpha := math.Pow(ub2/ub1, 1/float64(m2-m1))
	if !(alpha > 0) || math.IsNaN(alpha) {
		return CostModel{}, fmt.Errorf("%w: alpha=%g", ErrFit, alpha)
	}
	if alpha >= 1 {
		// Degenerate data (bound does not tighten); fall back to a mild
		// decay so the optimizer still produces a usable M.
		alpha = 0.97
	}
	if alpha < 1e-6 {
		alpha = 1e-6
	}
	a := ub1 / math.Pow(alpha, float64(m1))

	// β: for sampled queries, fraction of the dataset whose true distance
	// falls inside the sample's full-space bound, divided by the bound.
	// A subsample of the data keeps this O(samples · n') cheap.
	scan := n
	if scan > 1500 {
		scan = 1500
	}
	scanIdx := rng.Perm(n)[:scan]
	// D(x, y) = Σⱼ φ(xⱼ) − φ(yⱼ) − φ′(yⱼ)(xⱼ − yⱼ), as bregman.Distance
	// sums it, but with φ(x) evaluated once per scanned point and φ(y),
	// φ′(y) once per sample instead of once per (sample, point) pair.
	phiX := make([]float64, scan*d)
	for i, id := range scanIdx {
		for j, v := range points[id] {
			phiX[i*d+j] = div.Phi(v)
		}
	}
	phiY := make([]float64, d)
	gradY := make([]float64, d)
	var betaSum float64
	var betaCnt int
	for s := 0; s < samples; s++ {
		x := points[rng.Intn(n)]
		y := points[rng.Intn(n)]
		kappa, mu := transform.KappaMu(div, x, y)
		ub := kappa + mu
		if ub <= 0 {
			continue
		}
		for j, v := range y {
			phiY[j], gradY[j] = div.Phi(v), div.Grad(v)
		}
		within := 0
		for i, id := range scanIdx {
			px, p := phiX[i*d:(i+1)*d], points[id]
			var dist float64
			for j := range p {
				dist += px[j] - phiY[j] - gradY[j]*(p[j]-y[j])
			}
			if max(dist, 0) <= ub {
				within++
			}
		}
		betaSum += (float64(within) / float64(scan)) / ub
		betaCnt++
	}
	if betaCnt == 0 {
		return CostModel{}, fmt.Errorf("%w: no usable beta samples", ErrFit)
	}
	beta := betaSum / float64(betaCnt)
	if beta <= 0 {
		beta = 1e-9
	}
	return CostModel{A: a, Alpha: alpha, Beta: beta, N: n, D: d}, nil
}

// Cost evaluates the total online time-complexity surrogate of §5.1 for a
// given partition count and result size k:
//
//	d + 2·M·n + n·log k + βAαᴹ·n·d + βAαᴹ·n·log k,
//
// where the 2Mn accounts for computing the per-subspace upper bounds and
// summing them (each O(Mn)); differentiating this in M yields exactly the
// paper's Theorem-4 closed form with its factor 2n.
func (cm CostModel) Cost(m, k int) float64 {
	if k < 1 {
		k = 1
	}
	logk := math.Log(float64(k))
	n := float64(cm.N)
	pruned := cm.Beta * cm.A * math.Pow(cm.Alpha, float64(m)) * n
	return float64(cm.D) + 2*float64(m)*n + n*logk + pruned*float64(cm.D) + pruned*logk
}

// TheoremM returns the closed-form Theorem-4 optimum
// M = log_α( 2n / (−µ·lnα·(d + log k)) ) with µ = βAn, un-rounded.
func (cm CostModel) TheoremM(k int) float64 {
	if k < 1 {
		k = 1
	}
	mu := cm.Beta * cm.A * float64(cm.N)
	lnA := math.Log(cm.Alpha)
	denom := -mu * lnA * (float64(cm.D) + math.Log(float64(k)))
	if denom <= 0 {
		return 1
	}
	arg := 2 * float64(cm.N) / denom
	return math.Log(arg) / lnA
}

// OptimalM rounds TheoremM by comparing the cost at floor and ceiling
// (§5.1: "we compute the time costs in both cases of rounding up and down
// and choose the best value"), clamped to [1, d]. The paper fixes k=1 when
// deriving M offline.
func (cm CostModel) OptimalM(k int) int {
	raw := cm.TheoremM(k)
	lo := int(math.Floor(raw))
	hi := int(math.Ceil(raw))
	lo = clampM(cm.D, lo)
	hi = clampM(cm.D, hi)
	if cm.Cost(lo, k) <= cm.Cost(hi, k) {
		return lo
	}
	return hi
}

// SweepOptimal exhaustively minimizes Cost over 1..d, used by the ablation
// bench to validate the closed form against brute force.
func (cm CostModel) SweepOptimal(k int) int {
	best, bestCost := 1, math.Inf(1)
	for m := 1; m <= cm.D; m++ {
		if c := cm.Cost(m, k); c < bestCost {
			best, bestCost = m, c
		}
	}
	return best
}
