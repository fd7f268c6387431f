// Package brepartition is the public API of the BrePartition library, a
// reproduction of "BrePartition: Optimized High-Dimensional kNN Search with
// Bregman Distances" (Song, Gu, Zhang, Yu — ICDE 2023 / TKDE). It answers
// exact and probabilistically-guaranteed approximate k-nearest-neighbour
// queries under Bregman divergences in spaces of hundreds of dimensions
// using a partition–filter–refinement framework: dimensions are split into
// subspaces (PCCP), per-subspace Cauchy–Schwarz bounds drive range queries
// over a disk-resident forest of Bregman Ball trees, and candidates are
// refined exactly.
//
// Quick start:
//
//	idx, err := brepartition.Build(brepartition.ItakuraSaito(), points, nil)
//	if err != nil { ... }
//	res, err := idx.Search(query, 10)
//	for _, nb := range res.Items {
//	    fmt.Println(nb.ID, nb.Score) // dataset row and Bregman distance
//	}
//
// For query-heavy service workloads, wrap the index in an Engine: it runs
// many queries concurrently over a bounded worker pool, shares an LRU
// result cache across them, and aggregates QPS / latency statistics:
//
//	eng := brepartition.NewEngine(idx, nil)
//	results, err := eng.BatchSearch(queries, 10)
//	st := eng.Stats() // QPS, p50/p99 latency, page reads, cache hits
//
// All Index and Engine methods are safe for concurrent use; Insert and
// Delete take the index's exclusive lock, so searches never observe a torn
// index (see DESIGN.md, "Concurrency model").
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between this library and the paper.
package brepartition

import (
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/scan"
	"brepartition/internal/shard"
	"brepartition/internal/topk"
)

// Divergence describes a decomposable Bregman divergence. Use the provided
// constructors (SquaredEuclidean, ItakuraSaito, Exponential, GeneralizedKL,
// ...) or implement the interface for a custom generator; implementations
// must keep Phi strictly convex and GradInv the inverse of Grad.
type Divergence = bregman.Divergence

// Built-in divergences.
func SquaredEuclidean() Divergence     { return bregman.SquaredEuclidean{} }
func ItakuraSaito() Divergence         { return bregman.ItakuraSaito{} }
func Exponential() Divergence          { return bregman.Exponential{} }
func GeneralizedKL() Divergence        { return bregman.GeneralizedKL{} }
func ShannonEntropy() Divergence       { return bregman.ShannonEntropy{} }
func BurgEntropy() Divergence          { return bregman.BurgEntropy{} }
func Mahalanobis(w float64) Divergence { return bregman.Mahalanobis{W: w} }

// DivergenceByName resolves a registry name ("l2", "isd", "ed", "gkl",
// "shannon", "burg"); the paper's Table-4 aliases ("ED", "ISD") work too.
func DivergenceByName(name string) (Divergence, error) { return bregman.ByName(name) }

// Distance computes the Bregman distance D_f(x, y) between two vectors.
func Distance(div Divergence, x, y []float64) float64 { return bregman.Distance(div, x, y) }

// Options configures index construction. The zero value (or a nil pointer
// passed to Build) asks for the paper's defaults: M derived by the
// Theorem-4 cost model, PCCP partitioning, 32 KiB pages.
type Options = core.Options

// Index is a built BrePartition index over an immutable point set.
type Index struct {
	inner *core.Index
}

// Result carries the answer items and per-query statistics (I/O page
// reads, candidate count, filter/refine timing).
type Result = core.Result

// Query is one search request: the value behind every named search method
// and the one method, Query, that makes an index kind an Engine Backend.
// The legal shapes are exact kNN {Vec, K}, approximate {Vec, K, Approx, P},
// filtered {Vec, K, Keep} and range {Vec, Range, Radius}, each optionally
// with Cold (prefer the attached cold tier; honoured for exact unfiltered
// kNN); anything else fails validation with a typed error.
type Query = core.Query

// SearchStats is the per-query work breakdown.
type SearchStats = core.SearchStats

// Neighbor is one (dataset row id, Bregman distance) answer pair.
type Neighbor struct {
	ID       int
	Distance float64
}

// Build constructs an index over points (each a d-dimensional row inside
// div's domain). opts may be nil for defaults. The coordinates are copied
// into the index's flat storage arenas; the caller's slices are not
// retained.
func Build(div Divergence, points [][]float64, opts *Options) (*Index, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	inner, err := core.Build(div, points, o)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// Query answers q, appending the result items to dst; every named search
// method below is shorthand for one Query shape.
func (ix *Index) Query(dst []topk.Item, q *Query) (Result, error) { return ix.inner.Query(dst, q) }

// Search returns the exact k nearest neighbours of q under D_f(x, q).
func (ix *Index) Search(q []float64, k int) (Result, error) {
	return ix.inner.Search(q, k)
}

// SearchAppend is Search appending the result items to dst, the
// steady-state zero-allocation query path: every internal buffer comes
// from a pooled per-query context, so passing the previous result's
// truncated Items slice (res.Items[:0]) makes repeated queries allocate
// nothing at all. Result.Items is the extended dst.
func (ix *Index) SearchAppend(dst []topk.Item, q []float64, k int) (Result, error) {
	return ix.inner.SearchAppend(dst, q, k)
}

// SearchApprox returns k neighbours that are the exact kNN with probability
// guarantee p ∈ (0,1]; smaller p trades accuracy for speed (§8 of the
// paper). p = 1 is exact search.
func (ix *Index) SearchApprox(q []float64, k int, p float64) (Result, error) {
	return ix.inner.SearchApprox(q, k, p)
}

// Neighbors converts a Result's items into Neighbor values.
func Neighbors(res Result) []Neighbor {
	out := make([]Neighbor, len(res.Items))
	for i, it := range res.Items {
		out[i] = Neighbor{ID: it.ID, Distance: it.Score}
	}
	return out
}

// M returns the number of dimension partitions the index uses.
func (ix *Index) M() int { return ix.inner.M() }

// N returns the number of indexed points.
func (ix *Index) N() int { return ix.inner.N() }

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.inner.Dim() }

// BuildTime reports the precomputation wall time.
func (ix *Index) BuildTime() time.Duration { return ix.inner.BuildTime }

// RangeSearch returns every point with D_f(x, q) ≤ r, exactly, sorted
// ascending by distance, together with the query's work statistics.
func (ix *Index) RangeSearch(q []float64, r float64) ([]Neighbor, SearchStats, error) {
	return rangeSearch(ix.inner, q, r)
}

// rangeSearch is the range Query behind every index kind's RangeSearch.
func rangeSearch(b Backend, q []float64, r float64) ([]Neighbor, SearchStats, error) {
	res, err := b.Query(nil, &Query{Vec: q, Range: true, Radius: r})
	if err != nil {
		return nil, res.Stats, err
	}
	return Neighbors(res), res.Stats, nil
}

// Insert adds a point to the index (the paper's §10 future-work item) and
// returns its new dataset id. Searches stay exact; heavy churn loosens the
// ball bounds, so rebuild periodically for peak filtering.
//
// Insert is safe to call while searches run on other goroutines: all index
// methods follow a readers-writer discipline, so every search observes the
// index either entirely before or entirely after each mutation.
func (ix *Index) Insert(p []float64) (int, error) { return ix.inner.Insert(p) }

// Delete tombstones a point by id, reporting whether it was live. Deleted
// points never appear in results again.
func (ix *Index) Delete(id int) bool { return ix.inner.Delete(id) }

// Live returns the number of non-deleted points.
func (ix *Index) Live() int { return ix.inner.Live() }

// Version counts the mutations (Insert/Delete) applied so far. Two reads
// bracketed by equal Version values saw the same index state; the engine's
// result cache keys on it for invalidation.
func (ix *Index) Version() uint64 { return ix.inner.Version() }

// WriteFile persists the built index (partitioning, tuples, BB-forest) so
// a later process can skip the entire precomputation.
func (ix *Index) WriteFile(path string) error { return ix.inner.WriteFile(path) }

// ReadIndexFile loads an index persisted with WriteFile. Divergences are
// resolved from the built-in registry by name.
func ReadIndexFile(path string) (*Index, error) {
	inner, err := core.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner}, nil
}

// AttachColdTier builds (or cheaply reopens, when dir already holds a
// tier matching the index version) a cold tier under dir: a resident
// compressed-domain VA approximation plus an mmap-paged copy of the
// points behind a bounded block cache. SearchCold then answers exact
// queries with memory bounded by the VA bytes plus the cache budget —
// the point set itself stays on disk.
func (ix *Index) AttachColdTier(dir string, o ColdTierOptions) error {
	return ix.inner.EnsureColdTier(dir, o)
}

// SearchCold is Search served from the attached cold tier: the
// compressed-domain first pass prunes candidates in memory, and only
// the survivors fault their pages in. Answers are bit-identical to
// Search over the same index state; if the index has mutated since the
// tier was attached, the query transparently serves hot (re-attach to
// refresh the tier).
func (ix *Index) SearchCold(q []float64, k int) (Result, error) {
	return ix.inner.SearchCold(q, k)
}

// ColdStats snapshots the attached cold tier's lifetime counters; ok is
// false when no tier is attached.
func (ix *Index) ColdStats() (ColdTierStats, bool) { return ix.inner.ColdStats() }

// DetachColdTier closes the attached cold tier (the on-disk files remain
// for a later AttachColdTier to reopen). No-op without a tier.
func (ix *Index) DetachColdTier() error { return ix.inner.CloseColdTier() }

// ---------------------------------------------------------------------------
// Sharded scatter-gather index.
// ---------------------------------------------------------------------------

// ShardedIndex hash-partitions points across several independent core
// indexes and answers queries scatter-gather: every query fans out to all
// shards through per-shard worker pools and the per-shard top-k heaps are
// merged into the global top-k. Results are bit-for-bit identical to a
// single Index over the same points — same ids, same distances — while
// mutations lock only the id map and the one shard that owns the point
// (never another shard), and batch throughput scales with the shard
// engines' combined worker pools.
//
// A ShardedIndex is safe for concurrent use. Each mutation is atomic, but
// a query fanned across shards is not a global snapshot: two mutations to
// two different shards may straddle it (see DESIGN.md, "Sharding").
type ShardedIndex struct {
	inner *shard.Index
}

// BuildSharded hash-partitions points across shards core indexes (0 picks
// 4). opts configures every per-shard index; when opts.M is 0 the
// Theorem-4 cost model is fitted once on the full dataset and the result
// pinned into all shards. Global ids are the dataset row numbers, exactly
// as in Build.
func BuildSharded(div Divergence, points [][]float64, shards int, opts *Options) (*ShardedIndex, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	inner, err := shard.Build(div, points, shard.Options{Shards: shards, Core: o})
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{inner: inner}, nil
}

// OpenSharded loads a snapshot directory written by ShardedIndex.WriteDir.
// Every shard file is verified against the manifest's checksums before it
// is trusted; corruption anywhere fails the load with a descriptive error.
func OpenSharded(dir string) (*ShardedIndex, error) {
	inner, err := shard.ReadDir(dir, shard.Options{})
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{inner: inner}, nil
}

// Search returns the exact k nearest neighbours of q across all shards;
// ids and distances match a single Index over the same points.
func (sx *ShardedIndex) Search(q []float64, k int) (Result, error) {
	return sx.inner.Search(q, k)
}

// Query answers q scatter-gathered across all shards, appending the
// result items to dst.
func (sx *ShardedIndex) Query(dst []topk.Item, q *Query) (Result, error) {
	return sx.inner.Query(dst, q)
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p ∈ (0,1]: each shard runs its approximate search
// with guarantee p^(1/shards), so the independent per-shard guarantees
// compose back to ≥ p. p = 1 is exact search, bit-identical to Search.
func (sx *ShardedIndex) SearchApprox(q []float64, k int, p float64) (Result, error) {
	return sx.inner.Query(nil, &Query{Vec: q, K: k, Approx: true, P: p})
}

// BatchSearch answers all queries, scatter-gathering each across every
// shard concurrently. Results arrive in query order and match a
// sequential Search loop.
func (sx *ShardedIndex) BatchSearch(queries [][]float64, k int) ([]Result, error) {
	return batchSearch(sx.inner, queries, k, len(queries))
}

// RangeSearch returns every point with D_f(x, q) ≤ r across all shards,
// ascending by (distance, id).
func (sx *ShardedIndex) RangeSearch(q []float64, r float64) ([]Neighbor, SearchStats, error) {
	return rangeSearch(sx.inner, q, r)
}

// Insert adds a point, assigns it the next global id, and routes it to
// its owning shard — no other shard is locked (mutations serialize with
// each other on the id map, not with other shards' search work).
func (sx *ShardedIndex) Insert(p []float64) (int, error) { return sx.inner.Insert(p) }

// Delete tombstones a point by global id, reporting whether it was live.
func (sx *ShardedIndex) Delete(id int) bool { return sx.inner.Delete(id) }

// WriteDir persists the index as a snapshot directory: one index file per
// shard plus a checksummed manifest, committed by atomic rename so the
// destination never holds a half-written snapshot. Mutations quiesce for
// the duration; searches proceed.
func (sx *ShardedIndex) WriteDir(dir string) error { return sx.inner.WriteDir(dir) }

// Shards returns the shard count.
func (sx *ShardedIndex) Shards() int { return sx.inner.Shards() }

// ShardSizes returns how many ids each shard owns (balance diagnostics).
func (sx *ShardedIndex) ShardSizes() []int { return sx.inner.ShardSizes() }

// N returns the number of ids ever assigned (including tombstoned ones).
func (sx *ShardedIndex) N() int { return sx.inner.N() }

// Dim returns the indexed dimensionality.
func (sx *ShardedIndex) Dim() int { return sx.inner.Dim() }

// M returns the per-shard partition count.
func (sx *ShardedIndex) M() int { return sx.inner.M() }

// Live returns the number of non-deleted points.
func (sx *ShardedIndex) Live() int { return sx.inner.Live() }

// Version counts the mutations applied so far (the Engine's result cache
// keys on it, exactly as with Index).
func (sx *ShardedIndex) Version() uint64 { return sx.inner.Version() }

// AttachColdTier builds (or reopens) one cold tier per shard under dir.
// SearchCold then serves exact answers with per-shard bounded memory;
// see Index.AttachColdTier.
func (sx *ShardedIndex) AttachColdTier(dir string, o ColdTierOptions) error {
	return sx.inner.EnsureColdTier(dir, o)
}

// SearchCold is Search served from the per-shard cold tiers. Answers
// are bit-identical to Search; shards whose tier is missing or stale
// serve their part of the query hot.
func (sx *ShardedIndex) SearchCold(q []float64, k int) (Result, error) {
	return sx.inner.Query(nil, &Query{Vec: q, K: k, Cold: true})
}

// ColdStats sums the per-shard cold-tier counters; ok is false when no
// shard has a tier attached.
func (sx *ShardedIndex) ColdStats() (ColdTierStats, bool) { return sx.inner.ColdStats() }

// DetachColdTier closes every shard's cold tier (files remain on disk).
func (sx *ShardedIndex) DetachColdTier() error { return sx.inner.CloseColdTier() }

// ---------------------------------------------------------------------------
// Durable index: write-ahead logged mutations with crash recovery.
// ---------------------------------------------------------------------------

// DurableOptions configures a durable index: the sharded-index knobs
// (Shards, Workers, Core) plus the durability policy — SyncEvery/
// SyncInterval set how mutations are fsynced (0/1 = every mutation, group-
// committed across concurrent mutators; N > 1 = every N mutations;
// negative = only on Sync/Close or the interval), SegmentSize sets the WAL
// segment roll threshold, and CheckpointBytes the WAL size that triggers a
// background checkpoint (negative disables it; call Checkpoint yourself).
type DurableOptions = shard.DurableOptions

// DurableIndex is a ShardedIndex with a durable write path: every Insert
// and Delete is appended to a segmented, checksummed write-ahead log
// before it touches the index, and a background checkpointer folds the log
// into a snapshot so recovery time stays bounded. With the default sync
// policy a mutation is fsynced before the call returns — concurrent
// mutators share one fsync (group commit) — and OpenDurable after a crash
// recovers every acknowledged mutation exactly.
//
// A DurableIndex is safe for concurrent use and implements Backend, so a
// NewEngine can serve queries over it and route mutations to it.
type DurableIndex struct {
	inner *shard.Durable
}

// BuildDurable builds a sharded index over points and makes it durable
// under directory root: the initial snapshot and an empty WAL are written
// before it returns. opts may be nil for defaults (4 shards, fsync every
// mutation, 8 MiB segments, 32 MiB checkpoint threshold).
func BuildDurable(div Divergence, points [][]float64, root string, opts *DurableOptions) (*DurableIndex, error) {
	var o DurableOptions
	if opts != nil {
		o = *opts
	}
	inner, err := shard.BuildDurable(div, points, root, o)
	if err != nil {
		return nil, err
	}
	return &DurableIndex{inner: inner}, nil
}

// OpenDurable recovers a durable index from root: the newest valid
// snapshot is loaded (checksums verified, with the same crash-window
// fallback as OpenSharded) and the WAL tail past the snapshot's
// checkpoint is replayed. A torn record at the log's very end — the
// footprint of a crash mid-append — is dropped; corruption anywhere else
// fails with a descriptive error instead of serving an incomplete index.
func OpenDurable(root string, opts *DurableOptions) (*DurableIndex, error) {
	var o DurableOptions
	if opts != nil {
		o = *opts
	}
	inner, err := shard.OpenDurable(root, o)
	if err != nil {
		return nil, err
	}
	return &DurableIndex{inner: inner}, nil
}

// Search returns the exact k nearest neighbours of q across all shards.
func (dx *DurableIndex) Search(q []float64, k int) (Result, error) { return dx.inner.Search(q, k) }

// Query answers q scatter-gathered across all shards, appending the
// result items to dst.
func (dx *DurableIndex) Query(dst []topk.Item, q *Query) (Result, error) {
	return dx.inner.Query(dst, q)
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p (per-shard guarantees compose; see
// ShardedIndex.SearchApprox).
func (dx *DurableIndex) SearchApprox(q []float64, k int, p float64) (Result, error) {
	return dx.inner.Query(nil, &Query{Vec: q, K: k, Approx: true, P: p})
}

// BatchSearch answers all queries in query order.
func (dx *DurableIndex) BatchSearch(queries [][]float64, k int) ([]Result, error) {
	return batchSearch(dx.inner, queries, k, len(queries))
}

// RangeSearch returns every point with D_f(x, q) ≤ r across all shards.
func (dx *DurableIndex) RangeSearch(q []float64, r float64) ([]Neighbor, SearchStats, error) {
	return rangeSearch(dx.inner, q, r)
}

// Insert logs the point to the WAL, applies it to the owning shard, and
// returns its global id. Under the default sync policy the mutation is
// crash-durable when Insert returns; only nil-error mutations are
// acknowledged.
func (dx *DurableIndex) Insert(p []float64) (int, error) { return dx.inner.Insert(p) }

// Delete logs and applies a tombstone, reporting whether the id was live.
// No-op deletes write no log record.
func (dx *DurableIndex) Delete(id int) (bool, error) { return dx.inner.Delete(id) }

// Sync fsyncs the WAL through the last appended mutation — after it
// returns, every prior mutation is crash-durable regardless of policy.
func (dx *DurableIndex) Sync() error { return dx.inner.Sync() }

// Checkpoint snapshots the index, commits it atomically tagged with the
// covered LSN, and truncates the WAL segments the snapshot absorbed.
// The background checkpointer calls this automatically past
// CheckpointBytes; explicit calls bound recovery time on demand.
func (dx *DurableIndex) Checkpoint() error { return dx.inner.Checkpoint() }

// Close stops the background checkpointer, fsyncs outstanding records,
// and closes the WAL; the directory remains recoverable with OpenDurable.
func (dx *DurableIndex) Close() error { return dx.inner.Close() }

// LastLSN returns the highest appended WAL sequence number.
func (dx *DurableIndex) LastLSN() uint64 { return dx.inner.LastLSN() }

// SyncedLSN returns the highest WAL sequence number known durable.
func (dx *DurableIndex) SyncedLSN() uint64 { return dx.inner.SyncedLSN() }

// WALSize returns the live WAL bytes (the checkpoint trigger metric).
func (dx *DurableIndex) WALSize() int64 { return dx.inner.WALSize() }

// N returns the number of ids ever assigned (including tombstoned ones).
func (dx *DurableIndex) N() int { return dx.inner.N() }

// Live returns the number of non-deleted points.
func (dx *DurableIndex) Live() int { return dx.inner.Live() }

// Dim returns the indexed dimensionality.
func (dx *DurableIndex) Dim() int { return dx.inner.Dim() }

// M returns the per-shard partition count.
func (dx *DurableIndex) M() int { return dx.inner.M() }

// Shards returns the shard count.
func (dx *DurableIndex) Shards() int { return dx.inner.Shards() }

// ShardSizes returns how many ids each shard owns.
func (dx *DurableIndex) ShardSizes() []int { return dx.inner.ShardSizes() }

// Version counts the mutations applied so far (the Engine's result cache
// keys on it).
func (dx *DurableIndex) Version() uint64 { return dx.inner.Version() }

// AttachColdTier builds (or reopens) one cold tier per shard under the
// durable root's cold directory. Call after Checkpoint (or on a freshly
// opened index) so the tiers capture the current state; SearchCold then
// serves exact answers with bounded memory.
func (dx *DurableIndex) AttachColdTier(o ColdTierOptions) error {
	return dx.inner.EnsureColdTier(o)
}

// SearchCold is Search served from the per-shard cold tiers. Answers
// are bit-identical to Search; shards whose tier is missing or stale
// (mutated since AttachColdTier) serve their part of the query hot.
func (dx *DurableIndex) SearchCold(q []float64, k int) (Result, error) {
	return dx.inner.Query(nil, &Query{Vec: q, K: k, Cold: true})
}

// ColdStats sums the per-shard cold-tier counters; ok is false when no
// shard has a tier attached.
func (dx *DurableIndex) ColdStats() (ColdTierStats, bool) { return dx.inner.ColdStats() }

// DetachColdTier closes every shard's cold tier (Close also does this).
func (dx *DurableIndex) DetachColdTier() error { return dx.inner.CloseColdTier() }

// ---------------------------------------------------------------------------
// Concurrent batch query engine.
// ---------------------------------------------------------------------------

// EngineOptions tunes a query engine: Workers bounds concurrently executing
// queries (0 = GOMAXPROCS) and CacheSize sets the shared LRU result cache
// capacity in entries (0 = 1024, negative disables caching).
type EngineOptions = engine.Config

// EngineStats is the aggregate service view of an engine: completed query
// count, cache hits, summed page reads and candidates, wall time, QPS, and
// p50/p99 latency.
type EngineStats = engine.Stats

// Future is a handle to one in-flight query submitted to an Engine.
type Future = engine.Future

// Backend is any index an Engine can schedule over: Query plus Version.
// *Index, *ShardedIndex and *DurableIndex implement it; custom backends
// only need the two methods to be safe for concurrent use, with Version
// changing on every mutation (the result-cache invalidation invariant).
type Backend = engine.Backend

// Engine is a concurrent batch query layer over one backend — a single
// Index or a ShardedIndex: a bounded pool of query workers, submit/await
// semantics, a shared LRU result cache, and aggregate statistics. It is
// safe for concurrent use, including against an index that is being
// mutated with Insert/Delete from other goroutines; each query sees one
// consistent index snapshot, and cached results are invalidated by
// mutations (they are keyed on the backend's Version).
//
// Results handed out by an Engine may be shared with other callers of the
// same engine (cache hits); treat them as read-only.
type Engine struct {
	inner *engine.Engine
}

// NewEngine creates a query engine over any backend — an *Index, a
// *ShardedIndex, or a custom Backend. opts may be nil for defaults
// (GOMAXPROCS workers, 1024-entry cache).
func NewEngine(b Backend, opts *EngineOptions) *Engine {
	var o EngineOptions
	if opts != nil {
		o = *opts
	}
	return &Engine{inner: engine.New(b, o)}
}

// BatchSearch answers all queries with k exact nearest neighbours each,
// running up to Workers queries concurrently. Results arrive in query
// order and are identical to a sequential Search loop over the same index
// state; the first error (if any) is returned after every query settled.
func (e *Engine) BatchSearch(queries [][]float64, k int) ([]Result, error) {
	return e.inner.BatchSearch(queries, k)
}

// Submit enqueues one query and returns a Future immediately; Wait blocks
// for the answer. Use it to pipeline query production with execution.
func (e *Engine) Submit(q []float64, k int) *Future { return e.inner.Submit(q, k) }

// Insert routes a point insertion through the engine to its backend (an
// *Index, *ShardedIndex, or *DurableIndex). Cached results invalidate
// automatically; the mutation is counted in Stats.
func (e *Engine) Insert(p []float64) (int, error) { return e.inner.Insert(p) }

// Delete routes a tombstone through the engine, reporting whether the id
// was live; against a *DurableIndex a WAL failure surfaces as the error.
func (e *Engine) Delete(id int) (bool, error) { return e.inner.Delete(id) }

// SubmitApprox enqueues one approximate query (probability guarantee
// p ∈ (0,1]) and returns its Future; approx results bypass the result
// cache.
func (e *Engine) SubmitApprox(q []float64, k int, p float64) *Future {
	return e.inner.SubmitQuery(Query{Vec: q, K: k, Approx: true, P: p})
}

// SubmitRange enqueues one range query: the Future resolves to every
// point with D_f(x, q) ≤ r, ascending.
func (e *Engine) SubmitRange(q []float64, r float64) *Future {
	return e.inner.SubmitQuery(Query{Vec: q, Range: true, Radius: r})
}

// Stats snapshots the engine's aggregate statistics.
func (e *Engine) Stats() EngineStats { return e.inner.Stats() }

// Workers returns the effective query-level concurrency bound.
func (e *Engine) Workers() int { return e.inner.Workers() }

// QueueDepth returns the number of submitted queries not yet picked up
// by a worker — the backlog admission control sheds on.
func (e *Engine) QueueDepth() int { return e.inner.QueueDepth() }

// Drain blocks until every submitted query has completed and all workers
// are idle; the engine stays usable afterwards.
func (e *Engine) Drain() { e.inner.Drain() }

// Close drains the engine and rejects every later submission: its Future
// resolves immediately with an error. The backend index is not touched.
func (e *Engine) Close() error { return e.inner.Close() }

// BatchSearch is a convenience one-shot batch: it answers all queries with
// k neighbours each using workers concurrent queries (0 = GOMAXPROCS) and
// no result cache. For sustained traffic keep a NewEngine instead, so the
// cache and statistics persist across batches.
func (ix *Index) BatchSearch(queries [][]float64, k, workers int) ([]Result, error) {
	return batchSearch(ix.inner, queries, k, workers)
}

// batchSearch is the one-shot batch behind every index kind's BatchSearch:
// a cacheless engine submits every query, then gathers them in order. The
// sharded kinds ask for one worker per query: their per-shard worker pools
// bound the work, and the outer engine only has to keep all of them fed.
func batchSearch(b Backend, queries [][]float64, k, workers int) ([]Result, error) {
	return engine.New(b, engine.Config{Workers: workers, CacheSize: -1}).BatchSearch(queries, k)
}

// BruteForce computes the exact kNN by linear scan — the ground truth used
// in tests and for small datasets where an index does not pay off.
func BruteForce(div Divergence, points [][]float64, q []float64, k int) []Neighbor {
	items := scan.KNN(div, points, q, k)
	out := make([]Neighbor, len(items))
	for i, it := range items {
		out[i] = Neighbor{ID: it.ID, Distance: it.Score}
	}
	return out
}
