package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"brepartition/internal/bregman"
	"brepartition/internal/coldtier"
	"brepartition/internal/core"
	"brepartition/internal/topk"
)

// Handle is an atomically swappable reference to a Durable index: the
// serving layer's one stable object across hot snapshot reloads. Reads
// (Query) load the current index with a single atomic pointer read and
// run against it lock-free; a query that started before
// a swap simply finishes on the index generation it started on — swaps
// never drop or block in-flight queries. Mutations take a shared swap
// lock so a reload can quiesce the write path (exclusive side) for the
// checkpoint-close-reopen-swap window; because that window leaves the
// logical index state untouched and the mutation counter is seeded from
// the checkpoint LSN, Version is continuous across swaps.
//
// A Handle implements the same Backend + mutation surface as Durable, so
// an Engine can be built over the handle once and survive any number of
// reloads underneath.
type Handle struct {
	cur atomic.Pointer[Durable]

	// swapMu: mutations and checkpoints hold the read side, Reload and
	// Close the write side. Queries take neither.
	swapMu sync.RWMutex

	// reloadErr is sticky: a reload that closed the old index but could
	// not open the new one leaves the handle degraded (reads still work,
	// the write path is down); health checks surface it.
	errMu     sync.Mutex
	reloadErr error

	// coldCfg, when set, routes exact searches through the cold tier and
	// makes Reload re-ensure tiers on the new generation. Nil = hot only.
	coldCfg atomic.Pointer[coldtier.Config]
}

// NewHandle wraps an open durable index.
func NewHandle(d *Durable) *Handle {
	h := &Handle{}
	h.cur.Store(d)
	return h
}

// Current returns the durable index generation serving right now.
func (h *Handle) Current() *Durable { return h.cur.Load() }

// Err returns the sticky reload failure, if any (nil = healthy).
func (h *Handle) Err() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.reloadErr
}

// Reload hot-swaps the index: it checkpoints the current generation
// (folding the WAL into the snapshot), closes its WAL, opens a fresh
// generation with open — normally OpenDurable over the same root — and
// atomically publishes it. Mutations quiesce for the duration; queries
// keep running on whichever generation they started on and are never
// dropped. The logical state and Version are identical before and after.
//
// If open fails after the old WAL is closed, the handle is left degraded:
// queries still serve from the old in-memory generation, mutations fail,
// and the error is returned now and from Err until a later Reload
// succeeds.
func (h *Handle) Reload(open func() (*Durable, error)) error {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	h.errMu.Lock()
	degraded := h.reloadErr != nil
	h.errMu.Unlock()
	if !degraded {
		// Healthy path: fold the WAL into the snapshot and release it so
		// open can take over the directory. A degraded handle already
		// closed its generation — go straight to the reopen.
		old := h.cur.Load()
		if err := old.Checkpoint(); err != nil {
			return fmt.Errorf("shard: reload checkpoint: %w", err)
		}
		if err := old.Close(); err != nil {
			return fmt.Errorf("shard: reload close: %w", err)
		}
	}
	nd, err := open()
	h.errMu.Lock()
	if err != nil {
		defer h.errMu.Unlock()
		h.reloadErr = fmt.Errorf("shard: reload reopen (serving the previous generation read-only): %w", err)
		return h.reloadErr
	}
	h.cur.Store(nd)
	h.reloadErr = nil
	h.errMu.Unlock()
	// Re-ensure cold tiers on the new generation. A failure here does not
	// degrade the handle — the swap already succeeded and cold searches
	// fall back hot per shard — but it is reported so the caller can retry
	// EnableColdTier.
	if cfg := h.coldCfg.Load(); cfg != nil {
		if err := nd.EnsureColdTier(*cfg); err != nil {
			return fmt.Errorf("shard: reload cold tier (serving hot until re-ensured): %w", err)
		}
	}
	return nil
}

// Close closes the current generation's WAL and checkpointer. The handle
// keeps serving queries from memory afterwards (mutations fail), matching
// Durable.Close semantics.
func (h *Handle) Close() error {
	h.swapMu.Lock()
	defer h.swapMu.Unlock()
	return h.cur.Load().Close()
}

// --- read path: lock-free delegation to the current generation ----------

// Query answers q from the current generation. With a cold tier enabled
// the query is given the Cold preference: exact unfiltered kNN is served
// from the paged tier (identical answers, bounded memory; shards whose
// tier is missing or stale serve hot), every other shape stays hot.
func (h *Handle) Query(dst []topk.Item, q *core.Query) (core.Result, error) {
	d := h.cur.Load()
	if h.coldCfg.Load() != nil {
		cold := *q
		cold.Cold = true
		q = &cold
	}
	return d.Query(dst, q)
}

// Version counts mutations; continuous across reloads.
func (h *Handle) Version() uint64 { return h.cur.Load().Version() }

// N returns the number of ids ever assigned.
func (h *Handle) N() int { return h.cur.Load().N() }

// Live returns the number of non-deleted points.
func (h *Handle) Live() int { return h.cur.Load().Live() }

// Dim returns the indexed dimensionality.
func (h *Handle) Dim() int { return h.cur.Load().Dim() }

// M returns the per-shard partition count.
func (h *Handle) M() int { return h.cur.Load().M() }

// Shards returns the shard count.
func (h *Handle) Shards() int { return h.cur.Load().Shards() }

// Deleted reports whether global id g is tombstoned.
func (h *Handle) Deleted(g int) bool { return h.cur.Load().Deleted(g) }

// Divergence returns the divergence the index was built with.
func (h *Handle) Divergence() bregman.Divergence { return h.cur.Load().Divergence() }

// WALSize returns the current generation's live WAL bytes.
func (h *Handle) WALSize() int64 { return h.cur.Load().WALSize() }

// LastLSN returns the current generation's highest appended WAL LSN.
func (h *Handle) LastLSN() uint64 { return h.cur.Load().LastLSN() }

// SyncedLSN returns the current generation's highest durable WAL LSN.
func (h *Handle) SyncedLSN() uint64 { return h.cur.Load().SyncedLSN() }

// --- write path: shared swap lock so Reload can quiesce -----------------

// Insert durably adds a point and returns its global id.
func (h *Handle) Insert(p []float64) (int, error) {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().Insert(p)
}

// Delete durably tombstones id, reporting whether it was live.
func (h *Handle) Delete(id int) (bool, error) {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().Delete(id)
}

// Sync fsyncs the current generation's WAL.
func (h *Handle) Sync() error {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().Sync()
}

// Checkpoint snapshots the current generation and truncates its WAL.
func (h *Handle) Checkpoint() error {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().Checkpoint()
}

// Health snapshots every shard's structural health (read path, but it
// reports on the generation mutations land on, so it shares their lock).
func (h *Handle) Health() []ShardHealth {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().Health()
}

// CompactShard rebuilds shard s over its live points and checkpoints the
// result (Durable.CompactShard). It holds the shared swap lock like any
// mutation, so a concurrent Reload cannot close the generation mid-swap;
// queries are untouched throughout. The replaced slot carries no cold
// tier until the next EnableColdTier/Reload; its cold searches serve hot
// in the interim (counted in ColdFallbacks).
func (h *Handle) CompactShard(s int) (CompactStats, error) {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().CompactShard(s)
}

// --- cold tier: paged serving under a memory budget ---------------------

// EnableColdTier builds (or reopens) per-shard cold tiers under the
// durable root's cold directory and routes subsequent exact unfiltered
// kNN queries through them. The setting survives reloads: each new
// generation re-ensures its tiers. Approximate, filtered, and range
// queries stay on the hot path.
func (h *Handle) EnableColdTier(cfg coldtier.Config) error {
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	if err := h.cur.Load().EnsureColdTier(cfg); err != nil {
		return err
	}
	h.coldCfg.Store(&cfg)
	return nil
}

// DisableColdTier reverts to hot serving and closes the tiers. The
// on-disk tier files remain for a later EnableColdTier to reopen.
func (h *Handle) DisableColdTier() error {
	h.coldCfg.Store(nil)
	h.swapMu.RLock()
	defer h.swapMu.RUnlock()
	return h.cur.Load().CloseColdTier()
}

// ColdTierEnabled reports whether exact searches route through the tier.
func (h *Handle) ColdTierEnabled() bool { return h.coldCfg.Load() != nil }

// ColdStats sums the current generation's per-shard tier counters.
func (h *Handle) ColdStats() (coldtier.TierStats, bool) {
	return h.cur.Load().ColdStats()
}

// ColdFallbacks counts cold searches served hot on the current
// generation (missing or stale per-shard tiers).
func (h *Handle) ColdFallbacks() int64 { return h.cur.Load().ColdFallbacks() }
