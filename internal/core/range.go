package core

import (
	"fmt"
	"slices"
	"sync"

	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
	"brepartition/internal/transform"
)

// RangeSearch returns every point with D_f(x, q) ≤ r, exactly, sorted
// ascending by distance. It reuses the filter machinery: each subspace is
// probed with the full radius r (a subspace distance can never exceed the
// full-space distance for decomposable generators, so the per-subspace
// candidate sets are complete), and candidates are verified exactly
// through the index's monomorphized kernel with the pooled query context.
func (ix *Index) RangeSearch(q []float64, r float64) ([]topk.Item, SearchStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats SearchStats
	if len(q) != ix.dim() {
		return nil, stats, fmt.Errorf("%w: got %d, want %d", ErrDim, len(q), ix.dim())
	}
	if err := bregman.CheckDomain(ix.Div, q); err != nil {
		return nil, stats, err
	}
	if r < 0 {
		return nil, stats, nil
	}
	ctx := ix.getCtx()
	defer ix.putCtx(ctx)
	if cap(ctx.radii) < ix.M() {
		ctx.radii = make([]float64, ix.M())
	}
	ctx.radii = ctx.radii[:ix.M()]
	for i := range ctx.radii {
		ctx.radii[i] = r
	}
	if ctx.sess == nil {
		ctx.sess = ix.Forest.Store.NewSession()
	} else {
		ctx.sess.Reset(ix.Forest.Store)
	}
	cands, ts := ix.Forest.CandidateUnionCtx(q, ctx.radii, ctx.sess, &ctx.scratch)

	// A distance is kept only when it is ≤ r, and up to r the bounded
	// evaluation is exact; beyond it the sum is abandoned early.
	prep := ix.prepQuery(ctx, q)
	var out []topk.Item
	for _, id := range cands {
		p := ctx.sess.Point(id)
		if d := ix.kern.DistancePrepBound(p, q, prep, r); d <= r {
			out = append(out, topk.Item{ID: id, Score: d})
		}
	}
	slices.SortFunc(out, topk.Compare)
	stats = SearchStats{
		PageReads:     ctx.sess.PageReads(),
		Candidates:    len(cands),
		NodesVisited:  ts.NodesVisited,
		LeavesVisited: ts.LeavesVisited,
		DistanceComps: ts.DistanceComps + len(cands),
		ApproxC:       1,
	}
	return out, stats, nil
}

// SearchParallel is Search with the per-subspace range queries fanned out
// across workers goroutines (0 = one per subspace, capped at 8). Results
// are identical to Search; only wall-clock time differs. The refinement
// stays sequential because it is I/O-accounting-ordered.
func (ix *Index) SearchParallel(q []float64, k, workers int) (Result, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if k <= 0 {
		return Result{}, ErrK
	}
	if len(q) != ix.dim() {
		return Result{}, fmt.Errorf("%w: got %d, want %d", ErrDim, len(q), ix.dim())
	}
	if err := bregman.CheckDomain(ix.Div, q); err != nil {
		return Result{}, err
	}
	if workers <= 0 {
		workers = ix.M()
		if workers > 8 {
			workers = 8
		}
	}

	triples := transform.QTransform(ix.Div, q, ix.Parts)
	bounds := transform.QBDetermine(ix.Tuples, triples, k)

	// Fan the M subspace range queries out; each worker collects its own
	// candidate id set, merged afterwards.
	type subResult struct {
		ids []int
		st  bbtree.Stats
	}
	results := make([]subResult, ix.M())
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range ix.Forest.Trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var ids []int
			st := ix.Forest.Trees[i].RangeLeaves(q, bounds.Radii[i], func(node *bbtree.Node) {
				ids = append(ids, node.IDs...)
			})
			results[i] = subResult{ids: ids, st: st}
		}(i)
	}
	wg.Wait()

	sess := ix.Forest.Store.NewSession()
	seen := make([]bool, len(ix.Points))
	var cands []int
	var ts bbtree.Stats
	for _, sr := range results {
		ts.Add(sr.st)
		for _, id := range sr.ids {
			sess.Prefetch(id)
			if !seen[id] {
				seen[id] = true
				cands = append(cands, id)
			}
		}
	}

	items := scan.Refine(ix.Div, sess, cands, q, k)
	return Result{
		Items: items,
		Stats: SearchStats{
			PageReads:     sess.PageReads(),
			Candidates:    len(cands),
			BoundTotal:    bounds.Total,
			ApproxC:       1,
			NodesVisited:  ts.NodesVisited,
			LeavesVisited: ts.LeavesVisited,
			DistanceComps: ts.DistanceComps + len(cands),
		},
	}, nil
}
