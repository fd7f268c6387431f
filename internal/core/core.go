// Package core assembles the paper's primary contribution: the BrePartition
// partition–filter–refinement index (Algorithms 5 and 6).
//
// Precomputation (Algorithm 5): derive the optimized number of partitions M
// (Theorem 4), partition dimensions with PCCP, transform every point into
// per-subspace tuples P(x) = (αx, γx), and build the disk-resident
// BB-forest.
//
// Search (Algorithm 6): transform the query into per-subspace triples
// Q(y) = (αy, βyy, δy), select the k-th smallest summed upper bound and its
// per-subspace components as range radii (Algorithm 4), run range queries
// over the BB-forest, and refine the candidate union exactly.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"brepartition/internal/approx"
	"brepartition/internal/bbforest"
	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/coldtier"
	"brepartition/internal/disk"
	"brepartition/internal/kernel"
	"brepartition/internal/partition"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
	"brepartition/internal/transform"
)

// Options configures index construction.
type Options struct {
	// M forces the number of partitions; 0 derives it via Theorem 4.
	M int
	// OptimizerK is the k the cost model is optimized for; the paper fixes
	// 1 offline (§5.1). Default 1.
	OptimizerK int
	// DisablePCCP falls back to the equal/contiguous partitioning, the
	// ablation measured in Fig. 10.
	DisablePCCP bool
	// LeafSize sets the BB-tree cluster capacity (0 = 64). It is the
	// public-API knob; Tree.LeafSize overrides it when set.
	LeafSize int
	// PageSize sets the simulated disk page size in bytes (0 = 32 KiB).
	// Disk.PageSize overrides it when set.
	PageSize int
	// Tree and Disk configure the BB-forest in full detail; zero fields of
	// either take their defaults one by one.
	Tree bbtree.Config
	Disk disk.Config
	// CostSamples bounds the cost-model fitting sample (paper: 50).
	CostSamples int
	// PCCPSample bounds the correlation-matrix sample size.
	PCCPSample int
	// Approx configures the βxy distribution fit for SearchApprox.
	Approx approx.Config
	Seed   int64
	// BuildWorkers bounds the goroutines Build uses across every phase —
	// point validation, arena copy, tuple transform, and BB-forest
	// construction. 0 uses GOMAXPROCS; 1 forces the serial build. The
	// index produced is bit-identical at every setting: tree randomness
	// is derived per node, never from shared RNG state, and the failure
	// contract matches the serial build (the error for the lowest-index
	// bad point).
	BuildWorkers int
}

func (o Options) withDefaults() Options {
	if o.OptimizerK <= 0 {
		o.OptimizerK = 1
	}
	if o.CostSamples <= 0 {
		o.CostSamples = 50
	}
	if o.Tree.LeafSize <= 0 && o.LeafSize > 0 {
		o.Tree.LeafSize = o.LeafSize
	}
	// The two disk fields default independently: a caller who sets one
	// still gets the other's default (a negative IOPS turns the latency
	// model off, as it does in package disk).
	def := disk.DefaultConfig()
	if o.Disk.PageSize <= 0 {
		o.Disk.PageSize = def.PageSize
		if o.PageSize > 0 {
			o.Disk.PageSize = o.PageSize
		}
	}
	if o.Disk.IOPS == 0 {
		o.Disk.IOPS = def.IOPS
	}
	return o
}

// Index is a built BrePartition index.
//
// Thread safety: all exported methods are safe for concurrent use. Reads
// (Query and its named shorthands, Bounds, accessors) hold a shared lock —
// a cold-tier query reads only the immutable tier and takes it just to
// compare versions; mutations (Insert, Delete) hold an exclusive lock, so
// a search never observes a torn index — it sees the index either
// entirely before or entirely after each mutation. The exported fields are
// owned by the index after Build; external code must not mutate them while
// other goroutines use the index.
type Index struct {
	Div    bregman.Divergence
	Points [][]float64
	Parts  [][]int
	Forest *bbforest.Forest
	// Tuples[i][s] is P(pointᵢ) in subspace s.
	Tuples [][]transform.PointTuple
	// Model is the fitted cost model when M was derived (zero otherwise).
	Model partition.CostModel
	// BuildTime records the precomputation wall time (Fig. 7's metric).
	BuildTime time.Duration

	opts Options
	// deleted marks tombstoned points (nil until the first Delete).
	deleted []bool
	// built is the number of points resident in the build-time arenas
	// (ids < built are arena rows); points appended by Insert afterwards
	// live outside both the row-major Points arena and the slot-major disk
	// arena until a rebuild folds them back in.
	built int
	// d caches the dimensionality, truly immutable after construction
	// (unlike the Points slice header, which Insert rewrites), so Dim
	// stays lock-free.
	d int
	// kern is the monomorphized divergence kernel every distance on the
	// search path evaluates through; picked once at construction.
	kern kernel.Kernel

	// ctxPool recycles per-query search contexts (scratch vectors,
	// selector, candidate buffers, disk session) so steady-state searches
	// allocate nothing but their result slice.
	ctxPool sync.Pool

	// mu guards every mutable structure reachable from the index (Points,
	// Tuples, deleted, the BB-forest trees and the disk store layout).
	// Exported methods lock; unexported helpers assume the caller holds it.
	mu sync.RWMutex
	// version counts completed mutations; snapshot consumers (the engine's
	// result cache) use it to detect staleness.
	version uint64

	// cold is the optional larger-than-RAM tier (see cold.go): an
	// immutable VA + paged-store replica of one index version, swapped
	// atomically by Build/Open/EnsureColdTier. coldFallbacks counts cold
	// searches transparently served hot because the tier was stale.
	cold          atomic.Pointer[coldtier.Tier]
	coldFallbacks atomic.Int64
}

// searchContext is the pooled per-query state. Every buffer is reused
// across queries; epoch stamping (in the session and the forest scratch)
// replaces clearing.
type searchContext struct {
	triples []transform.QueryTriple
	radii   []float64
	sel     *topk.Selector
	sess    *disk.Session
	scratch bbforest.SearchScratch
	dist    []float64
	qprep   []float64
}

// getCtx fetches a warm context from the pool (or makes a cold one).
func (ix *Index) getCtx() *searchContext {
	if c, ok := ix.ctxPool.Get().(*searchContext); ok {
		return c
	}
	return &searchContext{sel: topk.New(1), dist: make([]float64, scan.RefineChunk)}
}

func (ix *Index) putCtx(c *searchContext) { ix.ctxPool.Put(c) }

// prepQuery hoists q's kernel terms into the context's pooled buffer (nil
// for a kernel that hoists nothing); it allocates nothing when warm.
func (ix *Index) prepQuery(ctx *searchContext, q []float64) []float64 {
	n := ix.kern.QueryScratchLen(len(q))
	if n == 0 {
		return nil
	}
	if cap(ctx.qprep) < n {
		ctx.qprep = make([]float64, n)
	}
	prep := ctx.qprep[:n]
	ix.kern.PrepQuery(prep, q)
	return prep
}

// Kernel returns the monomorphized divergence kernel the index searches
// with.
func (ix *Index) Kernel() kernel.Kernel { return ix.kern }

// SearchStats reports the work of one query, the quantities plotted in the
// paper's figures.
type SearchStats struct {
	// PageReads is the per-query distinct-page I/O cost.
	PageReads int
	// Candidates is the size of the candidate union C.
	Candidates int
	// BoundTotal is the k-th smallest summed upper bound.
	BoundTotal float64
	// ApproxC is the Proposition-1 coefficient (1 for exact search).
	ApproxC       float64
	NodesVisited  int
	LeavesVisited int
	DistanceComps int
	// FilterTime and RefineTime split the query wall time.
	FilterTime time.Duration
	RefineTime time.Duration
	// Cold-tier detail, populated only when the query was served by
	// SearchColdAppend: points scanned in the compressed domain, points
	// rejected by VA bounds, pages faulted in, block-cache hits, and
	// the tier's wall time.
	ColdScanned    int
	ColdPruned     int
	ColdPageFaults int
	ColdCacheHits  int
	ColdTime       time.Duration
}

// Result is a query answer.
type Result struct {
	// Items are (dataset id, exact Bregman distance) ascending.
	Items []topk.Item
	Stats SearchStats
}

// ErrEmpty reports a build over zero points.
var ErrEmpty = errors.New("core: empty dataset")

// Build runs Algorithm 5. Construction parallelizes across
// opts.BuildWorkers goroutines but is fully deterministic: every worker
// count (including 1, the serial build) produces a bit-identical index and
// the identical error on bad input.
func Build(div bregman.Divergence, points [][]float64, opts Options) (*Index, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if len(points) == 0 {
		return nil, ErrEmpty
	}
	workers := opts.BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Validate every point and copy the coordinates into one row-major
	// arena: Points[i] stays a []float64 row for every existing consumer,
	// but the rows are physically contiguous in id order, so ground-truth
	// scans and the tuple transform stream cache-linearly. (Points
	// appended later by Insert live outside the arena until a rebuild.)
	d := len(points[0])
	arena := make([]float64, len(points)*d)
	rows := make([][]float64, len(points))
	if err := validateAndCopy(div, points, rows, arena, d, workers); err != nil {
		return nil, err
	}

	ix := &Index{Div: div, Points: rows, opts: opts, d: d, kern: kernel.For(div), built: len(rows)}

	// Step 1 (Line 2): number of partitions.
	m := opts.M
	if m <= 0 {
		model, err := partition.FitCostModel(div, rows, opts.CostSamples, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: deriving M: %w", err)
		}
		ix.Model = model
		m = model.OptimalM(opts.OptimizerK)
	}
	if m < 1 {
		m = 1
	}
	if m > d {
		m = d
	}

	// Step 2 (Line 3): dimensionality partitioning.
	if opts.DisablePCCP {
		ix.Parts = partition.Equal(d, m)
	} else {
		ix.Parts = partition.PCCPWorkers(rows, m, opts.PCCPSample, opts.Seed, workers)
	}

	// Step 3 (Lines 4–7): offline tuple transform, into one flat backing
	// (row views per point) so Algorithm 4's O(n·M) bound scan streams.
	// Each point's tuples are independent, so the transform fans out over
	// disjoint row ranges.
	nparts := len(ix.Parts)
	tupleArena := make([]transform.PointTuple, len(rows)*nparts)
	ix.Tuples = make([][]transform.PointTuple, len(rows))
	parallelRanges(len(rows), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off := i * nparts
			row := tupleArena[off : off+nparts : off+nparts]
			for s, dims := range ix.Parts {
				row[s] = transform.PTransformSub(div, rows[i], dims)
			}
			ix.Tuples[i] = row
		}
	})

	// Step 4 (Line 8): BB-forest.
	fcfg := bbforest.Config{Tree: opts.Tree, Disk: opts.Disk, Workers: workers}
	fcfg.Tree.Seed = opts.Seed
	forest, err := bbforest.Build(div, rows, ix.Parts, fcfg)
	if err != nil {
		return nil, err
	}
	ix.Forest = forest
	ix.BuildTime = time.Since(start)
	return ix, nil
}

// buildChunk is the smallest per-goroutine work range of the parallel
// build phases; inputs below it run inline on the calling goroutine.
const buildChunk = 512

// parallelRanges splits [0, n) into per-worker ranges and runs fn on each
// concurrently. fn must touch only its own range. n below buildChunk (or a
// single worker) runs inline.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n <= buildChunk {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	if chunk < buildChunk {
		chunk = buildChunk
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// validateAndCopy checks every point's dimensionality and divergence
// domain and copies it into the arena, fanning the scan across workers.
// Any failure cancels the sibling workers (they observe the stop flag and
// return without finishing their ranges), all goroutines are joined, and
// the error returned is re-derived serially so it is exactly the one the
// serial build reports — the lowest-index bad point — regardless of which
// worker tripped first.
func validateAndCopy(div bregman.Divergence, points, rows [][]float64, arena []float64, d, workers int) error {
	var stop atomic.Bool
	parallelRanges(len(points), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if stop.Load() {
				return
			}
			p := points[i]
			if len(p) != d || bregman.CheckDomain(div, p) != nil {
				stop.Store(true)
				return
			}
			off := i * d
			copy(arena[off:off+d], p)
			rows[i] = arena[off : off+d : off+d]
		}
	})
	if !stop.Load() {
		return nil
	}
	// Failure path: serial rescan for the canonical first error. The cost
	// is O(n) once, on a path that aborts the build anyway.
	for i, p := range points {
		if len(p) != d {
			return fmt.Errorf("core: point %d has dimension %d, want %d", i, len(p), d)
		}
		if err := bregman.CheckDomain(div, p); err != nil {
			return fmt.Errorf("core: point %d: %w", i, err)
		}
	}
	// Unreachable: the stop flag is only set by a failed check above.
	return errors.New("core: point validation failed")
}

// M returns the number of partitions in use (immutable after Build).
func (ix *Index) M() int { return len(ix.Parts) }

// N returns the number of indexed points (including tombstoned ones).
func (ix *Index) N() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.Points)
}

// Dim returns the data dimensionality (immutable after construction, so
// lock-free).
func (ix *Index) Dim() int { return ix.d }

// TailLen returns the number of points appended by Insert since the last
// build: rows living outside the slot-major arena, where refinement falls
// off the zero-copy block path. A rebuild (Build over the live points)
// folds the tail back in and resets this to zero.
func (ix *Index) TailLen() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.Points) - ix.built
}

// MaxTreeDepth returns the deepest subspace BB-tree's depth — a structural
// health signal: insert-by-descent never rebalances, so depth drifting far
// past the built depth marks the index a rebuild candidate.
func (ix *Index) MaxTreeDepth() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	max := 0
	for _, t := range ix.Forest.Trees {
		if d := t.Depth(); d > max {
			max = d
		}
	}
	return max
}

// LiveSnapshot returns the ids and rows of every live point, ascending by
// id. The rows alias the index's storage — point rows are never mutated
// after insertion, so the snapshot stays coordinate-stable across
// concurrent mutations — but callers must treat them as read-only.
func (ix *Index) LiveSnapshot() (ids []int, points [][]float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.Points)
	ids = make([]int, 0, n)
	points = make([][]float64, 0, n)
	for id := 0; id < n; id++ {
		if ix.deleted != nil && id < len(ix.deleted) && ix.deleted[id] {
			continue
		}
		ids = append(ids, id)
		points = append(points, ix.Points[id])
	}
	return ids, points
}

// Version returns the number of mutations (Insert/Delete) applied so far.
// Two searches bracketed by equal Version values saw the same index state.
func (ix *Index) Version() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.version
}

// Search runs Algorithm 6 and returns the exact kNN of q.
func (ix *Index) Search(q []float64, k int) (Result, error) {
	return ix.Query(nil, &Query{Vec: q, K: k})
}

// SearchAppend is Search appending the result items to dst (see Query for
// the zero-allocation contract).
func (ix *Index) SearchAppend(dst []topk.Item, q []float64, k int) (Result, error) {
	return ix.Query(dst, &Query{Vec: q, K: k})
}

// SearchApprox runs the §8 extension: exact radii are tightened by the
// Proposition-1 coefficient for probability guarantee p ∈ (0,1]; p = 1
// degenerates to exact search.
func (ix *Index) SearchApprox(q []float64, k int, p float64) (Result, error) {
	return ix.Query(nil, &Query{Vec: q, K: k, Approx: true, P: p})
}

// search runs Algorithm 6 for a validated kNN query with pooled per-query
// state; the caller must hold ix.mu (read side) and hand the context back
// to the pool afterwards. Result items are appended to dst. A non-nil
// q.Keep is pushed into both phases — the k-th-smallest bound is selected
// over matching points only (an unfiltered bound could prune matches away)
// and leaf emission drops non-matching ids before they are prefetched or
// refined — so the answer is the pre-filtered exact top-k, identical to
// brute force over the admitted subset, never a post-filtered
// approximation. Tombstoned ids are excluded on top of it.
func (ix *Index) search(ctx *searchContext, dst []topk.Item, query *Query) (Result, error) {
	q, k, keep := query.Vec, query.K, query.Keep
	p := 0.0 // exact
	if query.Approx {
		p = query.P
	}

	filterStart := time.Now()
	// Lines 2–4: query transform and searching bounds.
	ctx.triples = transform.QTransformAppend(ctx.triples[:0], ix.Div, q, ix.Parts)
	kb := k
	if n := len(ix.Tuples); kb > n {
		kb = n
	}
	ctx.sel.ResetK(kb)
	if cap(ctx.radii) < len(ctx.triples) {
		ctx.radii = make([]float64, len(ctx.triples))
	}
	ctx.radii = ctx.radii[:len(ctx.triples)]
	var bounds transform.Bounds
	if keep != nil {
		// Filtered bound selection: tombstoned ids are excluded on top of
		// the caller's predicate (their poisoned +Inf tuples would
		// otherwise inflate the radii whenever matches are scarce).
		live := keep
		if deleted := ix.deleted; deleted != nil {
			live = func(id int) bool {
				return !(id < len(deleted) && deleted[id]) && keep(id)
			}
		}
		var ok bool
		bounds, ok = transform.QBDetermineFilterInto(ix.Tuples, ctx.triples, ctx.sel, ctx.radii, live)
		if !ok {
			// Nothing matches: the filtered answer is empty, not an error.
			return Result{Items: dst}, nil
		}
	} else {
		bounds = transform.QBDetermineInto(ix.Tuples, ctx.triples, ctx.sel, ctx.radii)
	}

	radii := bounds.Radii
	c := 1.0
	if p > 0 && p < 1 {
		// §8: tighten the Cauchy term of the selected point's radii.
		dist, err := approx.FitBetaXY(ix.Div, ix.Points, q, ix.opts.Approx)
		if err != nil {
			return Result{}, fmt.Errorf("core: fitting βxy: %w", err)
		}
		kappa, mu := transform.KappaMu(ix.Div, ix.Points[bounds.PointID], q)
		c, err = approx.Coefficient(dist, p, kappa, mu)
		if err != nil {
			return Result{}, err
		}
		if c < 1 {
			radii = approx.ScaledRadii(ix.Tuples[bounds.PointID], ctx.triples, c)
		}
	}

	// Lines 5–7: range queries over the BB-forest.
	if ctx.sess == nil {
		ctx.sess = ix.Forest.Store.NewSession()
	} else {
		ctx.sess.Reset(ix.Forest.Store)
	}
	cands, ts := ix.Forest.CandidateUnionFilterCtx(q, radii, ctx.sess, &ctx.scratch, keep)
	filterTime := time.Since(filterStart)

	// Line 8: refinement. The query's hoisted kernel terms live in the
	// pooled context, so preparing them allocates nothing when warm.
	refineStart := time.Now()
	if kr := min(k, len(cands)); kr > 0 {
		ctx.sel.ResetK(kr)
		scan.RefineCtx(ix.kern, ctx.sess, cands, q, ctx.sel, ctx.dist, ix.prepQuery(ctx, q))
		dst = ctx.sel.AppendItems(dst)
	}
	refineTime := time.Since(refineStart)

	return Result{
		Items: dst,
		Stats: SearchStats{
			PageReads:     ctx.sess.PageReads(),
			Candidates:    len(cands),
			BoundTotal:    bounds.Total,
			ApproxC:       c,
			NodesVisited:  ts.NodesVisited,
			LeavesVisited: ts.LeavesVisited,
			DistanceComps: ts.DistanceComps + len(cands),
			FilterTime:    filterTime,
			RefineTime:    refineTime,
		},
	}, nil
}

// Bounds exposes Algorithm 4's output for a query (diagnostics and tests).
func (ix *Index) Bounds(q []float64, k int) (transform.Bounds, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(q) != ix.d {
		return transform.Bounds{}, ErrDim
	}
	triples := transform.QTransform(ix.Div, q, ix.Parts)
	return transform.QBDetermine(ix.Tuples, triples, k), nil
}
