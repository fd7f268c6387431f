package core

import (
	"errors"
	"fmt"

	"brepartition/internal/approx"
	"brepartition/internal/bregman"
	"brepartition/internal/obs"
	"brepartition/internal/topk"
)

// Query is one search request, the single value every layer's Query method
// takes (core.Index, shard.Index, shard.Durable, shard.Handle, and through
// engine.SubmitQuery the worker pools). The legal shapes are
//
//	exact kNN     {Vec, K}
//	approximate   {Vec, K, Approx, P}          P ∈ (0,1]; P = 1 is exact
//	filtered      {Vec, K, Keep}               also with Approx at P = 1
//	range         {Vec, Range, Radius}         Radius ≥ 0
//
// each optionally with Cold and Trace; Validate rejects everything else.
// Approx and Range say which parameter is read (P without Approx and Radius
// without Range are ignored), because its zero is a value (a radius of 0
// asks for exact duplicates) or an error (a guarantee of 0), not "unset":
// SearchApprox(q, k, 0) fails and RangeSearch(q, 0) answers, while
// Search(q, 0) fails, and all three would otherwise be one Query.
type Query struct {
	// Vec is the query point.
	Vec []float64
	// K is the number of nearest neighbours wanted (kNN shapes).
	K int
	// Range asks for every point with D_f(x, Vec) ≤ Radius instead of the
	// K nearest.
	Range  bool
	Radius float64
	// Approx asks for the §8 search: the answer is the exact kNN with
	// probability at least P.
	Approx bool
	P      float64
	// Keep, when non-nil, restricts the answer to the ids it admits. It
	// must be safe for concurrent use and cheap: it runs once per indexed
	// point per query.
	Keep func(id int) bool
	// Cold prefers the cold tier. It is honoured only for exact unfiltered
	// kNN (ServesCold); every other shape is answered hot.
	Cold bool
	// Trace, when non-nil, receives the spans and counters of the layers
	// that record any (engine: queue, run, search stats; shard: one child
	// span per shard). The core index records nothing itself.
	Trace *obs.Trace
}

// Errors Validate returns (with approx.ErrGuarantee and bregman.ErrDomain).
var (
	ErrDim    = errors.New("core: query dimensionality mismatch")
	ErrK      = errors.New("core: k must be positive")
	ErrRadius = errors.New("core: radius must be non-negative")
	ErrShape  = errors.New("core: illegal query shape")
)

// Validate checks q against an index of the given divergence and
// dimensionality. It is the one place a query is validated; every layer's
// Query calls it before doing any work.
func (q *Query) Validate(div bregman.Divergence, dim int) error {
	switch {
	case q.Range:
		if q.K != 0 || q.Approx || q.Keep != nil {
			return fmt.Errorf("%w: a range query takes no K, guarantee or filter", ErrShape)
		}
		if !(q.Radius >= 0) {
			return fmt.Errorf("%w: got %v", ErrRadius, q.Radius)
		}
	case q.K <= 0:
		return ErrK
	case q.Approx:
		if !(q.P > 0 && q.P <= 1) {
			return approx.ErrGuarantee
		}
		if q.Keep != nil && q.P < 1 {
			return fmt.Errorf("%w: a filtered search is exact (P < 1 with Keep)", ErrShape)
		}
	}
	if len(q.Vec) != dim {
		return DimError(len(q.Vec), dim)
	}
	return bregman.CheckDomain(div, q.Vec)
}

// DimError is ErrDim carrying the two dimensionalities, for the query and
// insert paths of every layer.
func DimError(got, want int) error {
	return fmt.Errorf("%w: got %d, want %d", ErrDim, got, want)
}

// ServesCold reports whether q is served by the cold tier: the Cold
// preference on an exact unfiltered kNN query, the one shape the tier
// answers.
func (q *Query) ServesCold() bool { return q.Cold && !q.Range && !q.Approx && q.Keep == nil }

// Query answers q, appending the result items to dst: the exact or
// approximate kNN through Algorithm 6, a range query through the same
// filter with the full radius in every subspace, or the exact kNN from the
// cold tier. With a reused dst of sufficient capacity a warm index answers
// a kNN query without allocating (the pooled context supplies every
// scratch buffer). Result.Items is the extended dst.
func (ix *Index) Query(dst []topk.Item, q *Query) (Result, error) {
	if err := q.Validate(ix.Div, ix.d); err != nil {
		return Result{}, err
	}
	if q.ServesCold() {
		if res, served, err := ix.searchCold(dst, q); served || err != nil {
			return res, err
		}
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ctx := ix.getCtx()
	var res Result
	var err error
	if q.Range {
		res = ix.rangeSearch(ctx, dst, q.Vec, q.Radius)
	} else {
		res, err = ix.search(ctx, dst, q)
	}
	ix.putCtx(ctx)
	return res, err
}
