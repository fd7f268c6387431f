package core

import (
	"slices"
	"time"

	"brepartition/internal/topk"
)

// RangeSearch returns every point with D_f(x, q) ≤ r, exactly, sorted
// ascending by distance.
func (ix *Index) RangeSearch(q []float64, r float64) ([]topk.Item, SearchStats, error) {
	res, err := ix.Query(nil, &Query{Vec: q, Range: true, Radius: r})
	return res.Items, res.Stats, err
}

// rangeSearch answers a validated range query, appending to dst; the
// caller holds ix.mu (read side) and owns ctx. It reuses the filter
// machinery: each subspace is probed with the full radius r (a subspace
// distance can never exceed the full-space distance for decomposable
// generators, so the per-subspace candidate sets are complete), and
// candidates are verified exactly through the index's monomorphized kernel.
func (ix *Index) rangeSearch(ctx *searchContext, dst []topk.Item, q []float64, r float64) Result {
	filterStart := time.Now()
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
	filterTime := time.Since(filterStart)

	// A distance is kept only when it is ≤ r, and up to r the bounded
	// evaluation is exact; beyond it the sum is abandoned early.
	refineStart := time.Now()
	prep := ix.prepQuery(ctx, q)
	out := dst
	for _, id := range cands {
		p := ctx.sess.Point(id)
		if d := ix.kern.DistancePrepBound(p, q, prep, r); d <= r {
			out = append(out, topk.Item{ID: id, Score: d})
		}
	}
	slices.SortFunc(out[len(dst):], topk.Compare)
	return Result{
		Items: out,
		Stats: SearchStats{
			PageReads:     ctx.sess.PageReads(),
			Candidates:    len(cands),
			NodesVisited:  ts.NodesVisited,
			LeavesVisited: ts.LeavesVisited,
			DistanceComps: ts.DistanceComps + len(cands),
			ApproxC:       1,
			FilterTime:    filterTime,
			RefineTime:    time.Since(refineStart),
		},
	}
}
