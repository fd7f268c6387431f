package shard

// Cold tier, sharded: every sub-index carries its own coldtier replica
// (built over that sub's LOCAL live ids), so a query with the Cold
// preference goes through the same fork and exact merge as any other
// (Index.Query) — per-shard answers arrive with local ids in (distance,
// local id) order, and l2g's strict monotonicity makes that the global
// (distance, id) order merge already relies on. A slot whose sub has no
// tier (compaction replaced it, or it was materialized after the last
// EnsureColdTier) transparently serves its part of the query hot; a slot
// whose tier is stale does the same inside core. Either way the merged
// answer stays exact, and the fallbacks are counted.

import (
	"fmt"
	"path/filepath"

	"brepartition/internal/coldtier"
)

// coldShardDir names shard s's tier directory under the tier root.
func coldShardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", s))
}

// EnsureColdTier makes dir hold one cold tier per shard, each matching
// its sub-index's current version: fresh on-disk tiers are reopened
// (cheap, O(manifest + VA bytes)), stale or missing ones rebuilt. Empty
// shards are skipped. cfg's cache budget applies per shard.
func (ix *Index) EnsureColdTier(dir string, cfg coldtier.Config) error {
	slots := ix.snapshotSlots()
	for s, sl := range slots {
		if sl == nil {
			continue
		}
		if err := sl.sub.EnsureColdTier(coldShardDir(dir, s), cfg); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// HasColdTier reports whether every populated shard has a tier attached
// (false on a fully empty index). A Cold query works regardless — shards
// without a tier serve hot — so this is a health signal, not a guard.
func (ix *Index) HasColdTier() bool {
	slots := ix.snapshotSlots()
	any := false
	for _, sl := range slots {
		if sl == nil {
			continue
		}
		if !sl.sub.HasColdTier() {
			return false
		}
		any = true
	}
	return any
}

// ColdStats sums the per-shard tier counters and footprints; ok is false
// when no shard has a tier attached.
func (ix *Index) ColdStats() (coldtier.TierStats, bool) {
	var agg coldtier.TierStats
	ok := false
	for _, sl := range ix.snapshotSlots() {
		if sl == nil {
			continue
		}
		st, has := sl.sub.ColdStats()
		if !has {
			continue
		}
		ok = true
		agg.Queries += st.Queries
		agg.Scanned += st.Scanned
		agg.Pruned += st.Pruned
		agg.Candidates += st.Candidates
		agg.PageReads += st.PageReads
		agg.DistanceComps += st.DistanceComps
		agg.VABytes += st.VABytes
		agg.ResidentBytes += st.ResidentBytes
		agg.DataBytes += st.DataBytes
		agg.Pager.Faults += st.Pager.Faults
		agg.Pager.CacheHits += st.Pager.CacheHits
		agg.Pager.Evictions += st.Pager.Evictions
		agg.Pager.Bypasses += st.Pager.Bypasses
		agg.Pager.Prefetches += st.Pager.Prefetches
		agg.Pager.PrefetchDrops += st.Pager.PrefetchDrops
		agg.Pager.ResidentBytes += st.Pager.ResidentBytes
		agg.Pager.CachedPages += st.Pager.CachedPages
		agg.Pager.VerifiedPages += st.Pager.VerifiedPages
		agg.Pager.TotalPages += st.Pager.TotalPages
		agg.Pager.DataBytes += st.Pager.DataBytes
		agg.Pager.CacheBytesConf += st.Pager.CacheBytesConf
	}
	return agg, ok
}

// ColdFallbacks returns how many per-shard cold searches were served hot:
// shard-level (no tier on the slot) plus core-level (tier stale).
func (ix *Index) ColdFallbacks() int64 {
	n := ix.coldFallbacks.Load()
	for _, sl := range ix.snapshotSlots() {
		if sl != nil {
			n += sl.sub.ColdFallbacks()
		}
	}
	return n
}

// CloseColdTier detaches and closes every shard's tier (no-op for shards
// without one), returning the first close error.
func (ix *Index) CloseColdTier() error {
	var firstErr error
	for _, sl := range ix.snapshotSlots() {
		if sl == nil {
			continue
		}
		if err := sl.sub.CloseColdTier(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- durable layer: tiers live beside the snapshot and WAL ---------------

const coldSubdir = "cold"

// ColdDir returns where this durable index keeps its cold tiers:
// <root>/cold, derived from the snapshot directory the index was opened
// with.
func (d *Durable) ColdDir() string {
	return filepath.Join(filepath.Dir(d.snapDir), coldSubdir)
}

// EnsureColdTier builds or reopens the per-shard cold tiers under
// ColdDir. Safe to call after Checkpoint or on a freshly opened index;
// when the on-disk tiers already match the live shard versions this is a
// cheap reopen.
func (d *Durable) EnsureColdTier(cfg coldtier.Config) error {
	return d.ix.EnsureColdTier(d.ColdDir(), cfg)
}

// HasColdTier reports whether every populated shard has a tier attached.
func (d *Durable) HasColdTier() bool { return d.ix.HasColdTier() }

// ColdStats sums the per-shard tier counters; ok is false without tiers.
func (d *Durable) ColdStats() (coldtier.TierStats, bool) { return d.ix.ColdStats() }

// ColdFallbacks counts cold searches served hot (missing or stale tier).
func (d *Durable) ColdFallbacks() int64 { return d.ix.ColdFallbacks() }

// CloseColdTier detaches and closes the per-shard tiers.
func (d *Durable) CloseColdTier() error { return d.ix.CloseColdTier() }
