package core

import (
	"math"

	"brepartition/internal/bregman"
	"brepartition/internal/transform"
)

// Insert adds a point to the built index — the paper's future-work item
// (§10: "support inserting or deleting large-scale data"). The point is
// appended to the disk layout's tail, transformed into its per-subspace
// tuples, and inserted into every subspace tree by ball-widening descent.
// All searches remain exact; heavy churn loosens the balls, so periodic
// rebuilds (Build on the live points) restore tightness.
//
// Insert returns the new point's dataset id. It holds the index's
// exclusive lock, so concurrent searches see the index either entirely
// without or entirely with the new point.
func (ix *Index) Insert(p []float64) (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(p) != ix.d {
		return 0, DimError(len(p), ix.d)
	}
	if err := bregman.CheckDomain(ix.Div, p); err != nil {
		return 0, err
	}
	own := make([]float64, len(p))
	copy(own, p)

	// The forest's store append is the only fallible step and runs before
	// any other structure learns the id, so a failure leaves the index
	// exactly as it was (no tree or tuple may name an id the store lacks,
	// and the version must not move, or the engine's result cache could
	// alias a torn state).
	id, err := ix.Forest.Insert(own)
	if err != nil {
		return 0, err
	}
	ix.Points = append(ix.Points, own)
	ix.Tuples = append(ix.Tuples, transform.PTransform(ix.Div, own, ix.Parts))
	if ix.deleted != nil {
		ix.deleted = append(ix.deleted, false)
	}
	ix.version++
	return id, nil
}

// Delete removes a point by id. The point leaves every subspace tree (so
// it can never be a candidate) and its tuples are poisoned so Algorithm 4
// never selects it as the bound source; ball radii are untouched and all
// bounds stay sound. Delete reports whether the id was live. Like Insert
// it holds the exclusive lock, so searches never observe a half-removed
// point.
func (ix *Index) Delete(id int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if id < 0 || id >= len(ix.Points) {
		return false
	}
	if ix.deleted == nil {
		ix.deleted = make([]bool, len(ix.Points))
	}
	for len(ix.deleted) < len(ix.Points) {
		ix.deleted = append(ix.deleted, false)
	}
	if ix.deleted[id] {
		return false
	}
	ix.deleted[id] = true
	ix.Forest.Delete(id)
	// +Inf bound components sort the point last in QBDetermine, so it can
	// no longer define (or tighten past) any searching radius.
	for s := range ix.Tuples[id] {
		ix.Tuples[id][s] = transform.PointTuple{Alpha: math.Inf(1), Gamma: 0}
	}
	ix.version++
	return true
}

// Live returns the number of non-deleted points.
func (ix *Index) Live() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.deleted == nil {
		return len(ix.Points)
	}
	live := len(ix.Points)
	for _, d := range ix.deleted {
		if d {
			live--
		}
	}
	return live
}

// Deleted reports whether id has been removed.
func (ix *Index) Deleted(id int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.deleted != nil && id < len(ix.deleted) && ix.deleted[id]
}
