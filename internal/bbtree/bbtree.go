// Package bbtree implements Bregman Ball trees: Cayton's hierarchical
// 2-means space decomposition (ICML 2008) with exact k-nearest-neighbour
// search, and the range-query algorithm of Cayton's NIPS 2009 paper that
// BrePartition performs inside every subspace (§6 of the paper).
//
// A node covers the Bregman ball B(µ, R) = {x : D_f(x, µ) ≤ R}. Pruning
// bounds for a query y come from projecting y onto the ball along the
// dual-space geodesic x(θ) = (∇f)⁻¹((1−θ)·∇f(y) + θ·∇f(µ)): the Lagrangian
// weak-duality value
//
//	L(θ) = D_f(x(θ), y) + θ/(1−θ)·(D_f(x(θ), µ) − R)
//
// lower-bounds min{D_f(x,y) : x ∈ B(µ,R)} for every θ ∈ (0,1), so a
// finite bisection yields a *provably safe* bound and search stays exact.
//
// Storage and evaluation are kernelized: each tree keeps its subspace
// coordinates in one flat row-major arena (id-major rows) and evaluates
// every distance — k-means assignment, leaf scans, the geodesic bisection —
// through the monomorphized divergence kernel chosen at construction, so
// the innermost loops never cross the bregman.Divergence interface.
package bbtree

import (
	"math"
	"math/rand"

	"brepartition/internal/bregman"
	"brepartition/internal/kernel"
	"brepartition/internal/topk"
)

// Config tunes tree construction and bound computation.
type Config struct {
	// LeafSize is the cluster capacity C; nodes with ≤ LeafSize points
	// become leaves. Defaults to 64.
	LeafSize int
	// MaxDepth bounds recursion (degenerate data guard). Defaults to 48.
	MaxDepth int
	// KMeansIters bounds Lloyd iterations per split. Defaults to 8.
	KMeansIters int
	// BisectIters bounds the θ bisection. Defaults to 24.
	BisectIters int
	// Seed drives k-means initialization.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LeafSize <= 0 {
		c.LeafSize = 64
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 48
	}
	if c.KMeansIters <= 0 {
		c.KMeansIters = 8
	}
	if c.BisectIters <= 0 {
		c.BisectIters = 24
	}
	return c
}

// Node is one ball of the hierarchy. Leaves carry the ids of their points.
type Node struct {
	Center []float64
	Radius float64
	Left   int // index into Tree.Nodes, -1 for leaf
	Right  int
	IDs    []int // leaf only
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left < 0 }

// Tree is a Bregman Ball tree over a subspace of a point set.
type Tree struct {
	Div  bregman.Divergence
	Dims []int // original dimension indices; nil means identity
	// Nodes[0] is the root (when the tree is non-empty).
	Nodes []Node

	cfg  Config
	kern kernel.Kernel
	// flat holds the subspace coordinates as id-major rows of width subDim:
	// flat[id*subDim : (id+1)*subDim]. live[id] reports whether the id is
	// indexed (false after Delete, or for gap ids padded by Insert).
	flat   []float64
	live   []bool
	subDim int
}

// Stats aggregates work counters for one query.
type Stats struct {
	NodesVisited  int
	LeavesVisited int
	DistanceComps int
	BoundComps    int
}

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.NodesVisited += other.NodesVisited
	s.LeavesVisited += other.LeavesVisited
	s.DistanceComps += other.DistanceComps
	s.BoundComps += other.BoundComps
}

// Gather copies the subspace coordinates of p selected by dims into a new
// slice; nil dims returns a copy of p.
func Gather(p []float64, dims []int) []float64 {
	if dims == nil {
		out := make([]float64, len(p))
		copy(out, p)
		return out
	}
	out := make([]float64, len(dims))
	for i, j := range dims {
		out[i] = p[j]
	}
	return out
}

// gatherInto writes the subspace view of p into dst and returns it.
func gatherInto(dst, p []float64, dims []int) []float64 {
	if dims == nil {
		copy(dst, p)
		return dst
	}
	for i, j := range dims {
		dst[i] = p[j]
	}
	return dst
}

// Build constructs the tree over points (full-dimensional dataset rows),
// restricted to the subspace dims (nil for all dimensions). The points are
// gathered once into the tree's flat subspace arena.
func Build(div bregman.Divergence, points [][]float64, dims []int, cfg Config) *Tree {
	return BuildWithLimiter(div, points, dims, cfg, nil)
}

// BuildWithLimiter is Build with subtree construction fanned across lim's
// worker budget (nil builds serially). The resulting tree is bit-identical
// to the serial build at any worker count: split randomness is derived per
// node from (cfg.Seed, node path), never from shared RNG state, so
// goroutine scheduling cannot influence the topology (see parallel.go).
func BuildWithLimiter(div bregman.Divergence, points [][]float64, dims []int, cfg Config, lim *Limiter) *Tree {
	cfg = cfg.withDefaults()
	n := len(points)
	t := &Tree{Div: div, Dims: dims, cfg: cfg, kern: kernel.For(div)}
	t.setSubDim(points)
	t.flat = make([]float64, n*t.subDim)
	t.live = make([]bool, n)
	for i, p := range points {
		gatherInto(t.rowAt(i), p, dims)
		t.live[i] = true
	}
	if n == 0 {
		return t
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	t.Nodes = t.buildSubtree(ids, 0, 1, lim)
	return t
}

// Rehydrate reconstructs a tree from persisted nodes: the node topology is
// taken as-is and the subspace coordinates are re-gathered from points.
// It is the inverse of walking Tree.Nodes during serialization.
func Rehydrate(div bregman.Divergence, points [][]float64, dims []int, nodes []Node) *Tree {
	t := &Tree{Div: div, Dims: dims, Nodes: nodes, cfg: Config{}.withDefaults(), kern: kernel.For(div)}
	t.setSubDim(points)
	t.flat = make([]float64, len(points)*t.subDim)
	t.live = make([]bool, len(points))
	for i, p := range points {
		gatherInto(t.rowAt(i), p, dims)
		t.live[i] = true
	}
	return t
}

// setSubDim fixes the subspace width from the restriction or the data.
func (t *Tree) setSubDim(points [][]float64) {
	switch {
	case t.Dims != nil:
		t.subDim = len(t.Dims)
	case len(points) > 0:
		t.subDim = len(points[0])
	default:
		t.subDim = 0
	}
}

// rowAt returns id's subspace row as a capacity-clamped arena view. It is
// valid for any id < Len(), live or not (tombstoned rows keep their last
// coordinates and are simply never referenced by a leaf).
func (t *Tree) rowAt(id int) []float64 {
	off := id * t.subDim
	return t.flat[off : off+t.subDim : off+t.subDim]
}

// SubDim returns the subspace dimensionality.
func (t *Tree) SubDim() int { return t.subDim }

// Len returns the number of indexed ids (including tombstoned ones).
func (t *Tree) Len() int { return len(t.live) }

// Root returns the root node index, or -1 for an empty tree.
func (t *Tree) Root() int {
	if len(t.Nodes) == 0 {
		return -1
	}
	return 0
}

// NumLeaves counts leaf nodes.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			c++
		}
	}
	return c
}

// Depth returns the maximum node depth (root = 1), a health signal for
// the maintainer: insert-by-descent never rebalances, so a tree whose
// depth drifts far past the build-time depth is a rebuild candidate.
func (t *Tree) Depth() int {
	if len(t.Nodes) == 0 {
		return 0
	}
	type frame struct{ idx, depth int }
	stack := []frame{{0, 1}}
	max := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth > max {
			max = f.depth
		}
		node := &t.Nodes[f.idx]
		if !node.IsLeaf() {
			stack = append(stack, frame{node.Left, f.depth + 1}, frame{node.Right, f.depth + 1})
		}
	}
	return max
}

// SubPoint returns the tree-local (subspace) coordinates of dataset id as
// an arena view, or nil when the id is not live (deleted or never seen).
func (t *Tree) SubPoint(id int) []float64 {
	if id < 0 || id >= len(t.live) || !t.live[id] {
		return nil
	}
	return t.rowAt(id)
}

// Kernel returns the monomorphized divergence kernel the tree evaluates
// with.
func (t *Tree) Kernel() kernel.Kernel { return t.kern }

// centroid returns the arithmetic mean of the ids' points — the exact
// minimizer of Σ D_f(x, µ) over µ for any Bregman divergence (Banerjee et
// al. 2005), which is what makes Bregman k-means well-defined.
func (t *Tree) centroid(ids []int) []float64 {
	d := t.subDim
	c := make([]float64, d)
	for _, id := range ids {
		p := t.rowAt(id)
		for j := range c {
			c[j] += p[j]
		}
	}
	inv := 1 / float64(len(ids))
	for j := range c {
		c[j] *= inv
	}
	return c
}

// split runs 2-means with Bregman assignment. ok is false when the data is
// degenerate (all points identical), in which case the caller keeps a leaf.
func (t *Tree) split(ids []int, rng *rand.Rand) (left, right []int, ok bool) {
	// Seed centers with two distinct points.
	c0 := t.rowAt(ids[rng.Intn(len(ids))])
	var c1 []float64
	for attempts := 0; attempts < 16; attempts++ {
		cand := t.rowAt(ids[rng.Intn(len(ids))])
		if !equalVec(cand, c0) {
			c1 = cand
			break
		}
	}
	if c1 == nil {
		// Fall back to the farthest point from c0.
		far, farD := -1, -1.0
		for _, id := range ids {
			if d := t.kern.Distance(t.rowAt(id), c0); d > farD {
				farD, far = d, id
			}
		}
		if farD <= 0 {
			return nil, nil, false
		}
		c1 = t.rowAt(far)
	}
	ctr0 := append([]float64(nil), c0...)
	ctr1 := append([]float64(nil), c1...)

	assign := make([]byte, len(ids))
	for iter := 0; iter < t.cfg.KMeansIters; iter++ {
		changed := false
		n0, n1 := 0, 0
		for i, id := range ids {
			row := t.rowAt(id)
			d0 := t.kern.Distance(row, ctr0)
			d1 := t.kern.Distance(row, ctr1)
			a := byte(0)
			if d1 < d0 {
				a = 1
			}
			if assign[i] != a {
				assign[i] = a
				changed = true
			}
			if a == 0 {
				n0++
			} else {
				n1++
			}
		}
		if n0 == 0 || n1 == 0 {
			// Rebalance: move the point farthest from the occupied
			// center into the empty side.
			full := ctr0
			if n0 == 0 {
				full = ctr1
			}
			far, farD := -1, -1.0
			for i, id := range ids {
				if d := t.kern.Distance(t.rowAt(id), full); d > farD {
					farD, far = d, i
				}
			}
			if farD <= 0 {
				return nil, nil, false
			}
			if n0 == 0 {
				assign[far] = 0
			} else {
				assign[far] = 1
			}
			changed = true
		}
		// Recompute centers as means.
		d := t.subDim
		sum0 := make([]float64, d)
		sum1 := make([]float64, d)
		n0, n1 = 0, 0
		for i, id := range ids {
			p := t.rowAt(id)
			if assign[i] == 0 {
				for j := range sum0 {
					sum0[j] += p[j]
				}
				n0++
			} else {
				for j := range sum1 {
					sum1[j] += p[j]
				}
				n1++
			}
		}
		if n0 == 0 || n1 == 0 {
			return nil, nil, false
		}
		for j := range sum0 {
			sum0[j] /= float64(n0)
			sum1[j] /= float64(n1)
		}
		ctr0, ctr1 = sum0, sum1
		if !changed {
			break
		}
	}
	for i, id := range ids {
		if assign[i] == 0 {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return nil, nil, false
	}
	return left, right, true
}

func equalVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Bounds: dual-geodesic projection (the "secant method" of §5.1/[35]).
// ---------------------------------------------------------------------------

// Projector computes node lower bounds for one query against one tree,
// owning the scratch vectors the geodesic bisection needs. A zero
// Projector is ready for Bind; rebinding reuses the scratch, so a pooled
// projector makes repeated queries allocation-free.
type Projector struct {
	t       *Tree
	kern    kernel.Kernel
	q       []float64 // query in subspace coordinates
	gq      []float64 // ∇f(q)
	gmu     []float64 // ∇f(center), refreshed per node
	prep    []float64 // kern.PrepQuery(q): hoisted terms of D_f(·, q)
	scratch []float64 // generic-kernel geodesic scratch
}

// Bind points the projector at tree and gathers the full-dimensional query
// qFull into the tree's subspace, reusing the scratch buffers.
func (p *Projector) Bind(t *Tree, qFull []float64) {
	d := t.subDim
	p.t = t
	p.kern = t.kern
	p.q = grow(p.q, d)
	p.gq = grow(p.gq, d)
	p.gmu = grow(p.gmu, d)
	p.prep = grow(p.prep, p.kern.QueryScratchLen(d))
	p.scratch = grow(p.scratch, d)
	gatherInto(p.q, qFull, t.Dims)
	p.kern.GradVec(p.gq, p.q)
	p.kern.PrepQuery(p.prep, p.q)
}

// grow returns a slice of length n, reusing buf's backing array when it is
// large enough.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// LowerBound returns a provable lower bound on min{D_f(x, q) : x ∈ ball of
// node}. It never overestimates: when the geometry or arithmetic is
// uncertain it returns the best finite bound found so far (0 in the worst
// case — no pruning). Best-first search orders its queue by this value;
// range traversals, which only compare it with a radius, ask Prunes.
func (p *Projector) LowerBound(node *Node) float64 {
	return p.bound(node, 0, false)
}

// Prunes decides "does node's lower bound exceed r?" — whether a range
// query of radius r may skip the subtree — without running the bisection
// past the point where the answer is certain. The decision equals
// LowerBound(node) > r up to rounding at the boundary, where it errs
// towards keeping the node.
func (p *Projector) Prunes(node *Node, r float64) bool {
	return p.bound(node, r, true) > r
}

// bound runs the θ bisection. With decide unset it runs every iteration
// and returns the best bound found. With decide set it returns as soon as
// the comparison with r is settled, the returned bound standing on the
// settled side of r:
//
//   - keep, a witness: a point of the ball within r of the query caps the
//     true minimum, hence every valid lower bound, at r. The ball's center
//     is one (D_f(µ, µ) = 0 ≤ R) when D_f(µ, q) ≤ r — one distance, no
//     bisection; so is any geodesic point with dMu ≤ R and dQ ≤ r.
//   - prune: L(θ) lower-bounds the minimum for every θ, so the first
//     L(θ) > r is as final as the maximum over all iterations.
func (p *Projector) bound(node *Node, r float64, decide bool) float64 {
	if decide && p.kern.DistancePrep(node.Center, p.q, p.prep) <= r {
		return 0
	}
	dq := p.kern.Distance(p.q, node.Center)
	if dq <= node.Radius {
		return 0 // query inside the ball
	}
	p.kern.GradVec(p.gmu, node.Center)

	best := 0.0
	lo, hi := 0.0, 1.0
	for iter := 0; iter < p.t.cfg.BisectIters; iter++ {
		theta := (lo + hi) / 2
		dQ, dMu, ok := p.kern.GeodesicStep(p.gq, p.gmu, p.q, node.Center, theta, p.scratch)
		if !ok {
			return best
		}
		// Weak-duality lower bound, valid for every θ in (0,1).
		lb := dQ + theta/(1-theta)*(dMu-node.Radius)
		if !math.IsNaN(lb) && lb > best {
			best = lb
		}
		outside := dMu > node.Radius
		if decide && (best > r || (!outside && dQ <= r)) {
			return best
		}
		if outside {
			lo = theta // still outside: move toward the center
		} else {
			hi = theta
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Exact kNN (Cayton 2008 style best-first search).
// ---------------------------------------------------------------------------

// KNN returns the k nearest neighbours of q under D_f(x, q), exactly, as
// (id, distance) pairs sorted ascending. q is given in full-dimensional
// coordinates; the tree's subspace view is applied internally.
func (t *Tree) KNN(q []float64, k int) ([]topk.Item, Stats) {
	return t.KNNBudget(q, k, 0, nil)
}

// KNNVisit is KNN with a hook invoked on every leaf whose points are
// evaluated, letting callers charge disk I/O per visited cluster.
func (t *Tree) KNNVisit(q []float64, k int, onLeaf func(*Node)) ([]topk.Item, Stats) {
	return t.KNNBudget(q, k, 0, onLeaf)
}

// KNNBudget is the best-first search behind KNN. With maxLeaves > 0 it is
// the approximate variant used by the simulated "Var" baseline (Coviello
// et al., ICML 2013): identical traversal, but after the selector is full
// it stops once maxLeaves leaves have been examined, trading exactness for
// fewer node expansions. maxLeaves = 0 never stops early and is exact.
func (t *Tree) KNNBudget(q []float64, k, maxLeaves int, onLeaf func(*Node)) ([]topk.Item, Stats) {
	var st Stats
	if len(t.Nodes) == 0 || k <= 0 {
		return nil, st
	}
	var proj Projector
	proj.Bind(t, q)
	sel := topk.New(k)
	var pq topk.MinQueue
	pq.Push(0, 0)
	for pq.Len() > 0 {
		if maxLeaves > 0 && st.LeavesVisited >= maxLeaves && sel.Full() {
			break
		}
		it, _ := pq.Pop()
		if thr, ok := sel.Threshold(); ok && it.Score > thr {
			continue
		}
		node := &t.Nodes[it.ID]
		st.NodesVisited++
		if node.IsLeaf() {
			st.LeavesVisited++
			if onLeaf != nil {
				onLeaf(node)
			}
			for _, id := range node.IDs {
				d := t.kern.Distance(t.rowAt(id), proj.q)
				st.DistanceComps++
				sel.Offer(id, d)
			}
			continue
		}
		for _, child := range []int{node.Left, node.Right} {
			cn := &t.Nodes[child]
			lb := proj.LowerBound(cn)
			st.BoundComps++
			if thr, ok := sel.Threshold(); !ok || lb <= thr {
				pq.Push(child, lb)
			}
		}
	}
	return sel.Items(), st
}

// ---------------------------------------------------------------------------
// Range query (Cayton 2009): all leaves whose ball may intersect the range.
// ---------------------------------------------------------------------------

// RangeLeaves invokes visit for every leaf whose Bregman ball possibly
// contains a point x with D_f(x, q) ≤ r. Following the paper's I/O model,
// whole leaf clusters are treated as candidates; the caller refines.
//
// RangeLeaves allocates per-query scratch; the forest's pooled candidate
// union (bbforest.CandidateUnionCtx) drives RangeLeavesProj with reused
// state instead.
func (t *Tree) RangeLeaves(q []float64, r float64, visit func(node *Node)) Stats {
	var proj Projector
	var stack []int
	return t.RangeLeavesProj(q, r, &proj, &stack, visit)
}

// RangeLeavesProj is the range traversal, with caller-owned state: proj is
// rebound to this tree/query and stack (grown as needed) holds the explicit
// DFS worklist, so repeated queries allocate nothing. The visit callback
// must not retain the node.
func (t *Tree) RangeLeavesProj(q []float64, r float64, proj *Projector, stack *[]int, visit func(node *Node)) Stats {
	var st Stats
	if len(t.Nodes) == 0 {
		return st
	}
	proj.Bind(t, q)
	work := (*stack)[:0]
	work = append(work, 0)
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		node := &t.Nodes[idx]
		st.NodesVisited++
		st.BoundComps++
		if proj.Prunes(node, r) {
			continue
		}
		if node.IsLeaf() {
			st.LeavesVisited++
			visit(node)
			continue
		}
		// Push right first so the left child is explored first, matching
		// the recursive traversal order (leaf visit order is part of the
		// I/O accounting contract).
		work = append(work, node.Right, node.Left)
	}
	*stack = work
	return st
}

// RangeQuery returns the ids of all points with D_f(x, q) ≤ r, verified
// exactly, plus traversal stats. It is the reference implementation used by
// tests; BrePartition's filter step uses RangeLeaves and defers
// verification to the refinement phase.
func (t *Tree) RangeQuery(q []float64, r float64) ([]int, Stats) {
	var out []int
	qSub := Gather(q, t.Dims)
	st := t.RangeLeaves(q, r, func(node *Node) {
		for _, id := range node.IDs {
			if t.kern.Distance(t.rowAt(id), qSub) <= r {
				out = append(out, id)
			}
		}
	})
	st.DistanceComps += len(out)
	return out, st
}

// LeafOrder returns dataset ids in left-to-right leaf order — the layout
// the BB-forest writes to disk (§6: data organized by the reference tree's
// leaves).
func (t *Tree) LeafOrder() []int {
	out := make([]int, 0, len(t.live))
	var walk func(idx int)
	walk = func(idx int) {
		n := &t.Nodes[idx]
		if n.IsLeaf() {
			out = append(out, n.IDs...)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	if len(t.Nodes) > 0 {
		walk(0)
	}
	return out
}
