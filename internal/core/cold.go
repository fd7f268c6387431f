package core

// Cold-tier attachment: an Index can carry an optional internal/coldtier
// replica — a resident VA approximation plus an mmap-paged point store —
// built from one (version-stamped) snapshot of the live points. SearchCold
// answers from it with bounded memory and identical results; when the live
// index has mutated past the tier's built version, cold searches fall back
// to the hot path transparently (counted, never wrong) until the tier is
// re-ensured.

import (
	"errors"
	"fmt"
	"time"

	"brepartition/internal/coldtier"
	"brepartition/internal/topk"
)

// ErrNoColdTier reports a cold search against an index with no tier
// attached.
var ErrNoColdTier = errors.New("core: no cold tier attached")

// snapshotForCold captures (live ids, points, version) under one read
// lock, so the triple is consistent — Version() + LiveSnapshot() as two
// calls could interleave with a mutation.
func (ix *Index) snapshotForCold() (ids []int, points [][]float64, version uint64) {
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
	return ids, points, ix.version
}

// BuildColdTier snapshots the live points and builds a cold tier under
// dir, replacing (and closing) any previously attached tier. The build
// runs off-lock; concurrent mutations simply leave the new tier stale,
// exactly as they would a moment after the build.
func (ix *Index) BuildColdTier(dir string, cfg coldtier.Config) error {
	ids, points, version := ix.snapshotForCold()
	if len(points) == 0 {
		return ErrEmpty
	}
	tier, err := coldtier.Build(ix.Div, points, ids, version, dir, cfg)
	if err != nil {
		return err
	}
	if old := ix.cold.Swap(tier); old != nil {
		old.Close()
	}
	return nil
}

// OpenColdTier attaches a tier previously built under dir. It fails with
// coldtier.ErrStale (closing the tier) when the tier's built version does
// not match the live index — use EnsureColdTier to rebuild instead.
func (ix *Index) OpenColdTier(dir string, cfg coldtier.Config) error {
	tier, err := coldtier.Open(dir, ix.Div, cfg)
	if err != nil {
		return err
	}
	if tier.BuiltVersion() != ix.Version() {
		tier.Close()
		return fmt.Errorf("%w: built at %d, live at %d", coldtier.ErrStale, tier.BuiltVersion(), ix.Version())
	}
	if old := ix.cold.Swap(tier); old != nil {
		old.Close()
	}
	return nil
}

// EnsureColdTier makes dir hold a tier matching the current index
// version: it reuses the on-disk tier when fresh, rebuilding otherwise.
// The cheap path (reopen) is what reload and background maintenance hit.
func (ix *Index) EnsureColdTier(dir string, cfg coldtier.Config) error {
	if err := ix.OpenColdTier(dir, cfg); err == nil {
		return nil
	}
	return ix.BuildColdTier(dir, cfg)
}

// HasColdTier reports whether a tier is attached.
func (ix *Index) HasColdTier() bool { return ix.cold.Load() != nil }

// ColdStats snapshots the attached tier's lifetime counters; ok is false
// without a tier.
func (ix *Index) ColdStats() (coldtier.TierStats, bool) {
	t := ix.cold.Load()
	if t == nil {
		return coldtier.TierStats{}, false
	}
	return t.Stats(), true
}

// ColdFallbacks returns how many cold searches were served hot because
// the tier was stale.
func (ix *Index) ColdFallbacks() int64 { return ix.coldFallbacks.Load() }

// CloseColdTier detaches and closes the tier (no-op without one).
func (ix *Index) CloseColdTier() error {
	if old := ix.cold.Swap(nil); old != nil {
		return old.Close()
	}
	return nil
}

// SearchCold answers the exact kNN of q from the cold tier: the
// compressed-domain first pass prunes in memory, survivors fault in
// through the tier's block cache. Answers are identical to Search over
// the same index state. When the tier is stale (the index mutated since
// it was built) the query is served by the hot path instead — still
// exact, counted in ColdFallbacks.
func (ix *Index) SearchCold(q []float64, k int) (Result, error) {
	return ix.Query(nil, &Query{Vec: q, K: k, Cold: true})
}

// SearchColdAppend is SearchCold appending the result items to dst.
func (ix *Index) SearchColdAppend(dst []topk.Item, q []float64, k int) (Result, error) {
	return ix.Query(dst, &Query{Vec: q, K: k, Cold: true})
}

// searchCold answers a validated cold-eligible query from the attached
// tier. served is false (with a nil error) when the tier is stale or was
// closed under the query: the caller then answers hot, and the fallback
// is counted.
func (ix *Index) searchCold(dst []topk.Item, q *Query) (res Result, served bool, err error) {
	tier := ix.cold.Load()
	if tier == nil {
		return Result{}, false, ErrNoColdTier
	}
	if tier.BuiltVersion() != ix.Version() {
		ix.coldFallbacks.Add(1)
		return Result{}, false, nil
	}
	start := time.Now()
	items, st, err := tier.SearchAppend(dst, q.Vec, q.K)
	if errors.Is(err, coldtier.ErrClosed) {
		// Lost a race with CloseColdTier/a tier swap: serve hot, exactly.
		ix.coldFallbacks.Add(1)
		return Result{}, false, nil
	}
	if err != nil {
		return Result{}, false, err
	}
	return Result{
		Items: items,
		Stats: SearchStats{
			PageReads:      st.PageReads,
			Candidates:     st.Candidates,
			DistanceComps:  st.DistanceComps,
			ApproxC:        1,
			ColdScanned:    st.Scanned,
			ColdPruned:     st.Pruned,
			ColdPageFaults: st.PageFaults,
			ColdCacheHits:  st.CacheHits,
			ColdTime:       time.Since(start),
		},
	}, true, nil
}
