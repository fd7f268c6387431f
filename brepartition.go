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
// There is one index type, Index. Its constructor decides how it is
// deployed — in memory or under a write-ahead-logged directory, on one
// shard or hash-partitioned across several — never what it answers:
//
//	idx, err := brepartition.Build(brepartition.ItakuraSaito(), points, nil)
//	// or BuildSharded(div, points, 4, nil), or BuildDurable(div, points, "data/", nil)
//	if err != nil { ... }
//	res, err := idx.Search(query, 10)
//	for _, nb := range res.Items {
//	    fmt.Println(nb.ID, nb.Score) // dataset row and Bregman distance
//	}
//
// Every construction returns the same ids and distances for every Query
// shape. Insert and Delete go to the index; on an index that lives under a
// directory (BuildDurable, OpenDurable) they are logged before they apply,
// and Sync, Checkpoint and Close manage the log. WriteFile/ReadIndexFile
// and WriteDir/OpenSharded persist an in-memory index.
//
// For query-heavy service workloads, put an Engine in front of the index:
// it runs many queries concurrently over a bounded worker pool and
// aggregates QPS / latency statistics. It schedules queries only; mutate
// the index itself, also while the engine serves:
//
//	eng := brepartition.NewEngine(idx, nil)
//	results, err := eng.BatchSearch(queries, 10)
//	st := eng.Stats() // QPS, p50/p99 latency, page reads
//
// All Index and Engine methods are safe for concurrent use; a mutation
// locks the shard that owns its point, so searches never observe a torn
// shard (see DESIGN.md, "Concurrency model").
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between this library and the paper.
package brepartition

import (
	"errors"
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

// Index is a BrePartition index: its points hash-partitioned across one
// or more shards, each a partition–filter–refine core index, answering
// every query exactly as one index over all the points would. An index
// built or opened under a directory is durable: each Insert and Delete is
// appended to a checksummed write-ahead log before it applies, and a
// background checkpointer folds the log into a snapshot so recovery time
// stays bounded.
//
// An Index is safe for concurrent use. Each mutation is atomic, but a
// query fanned across shards is not a global snapshot: two mutations to
// two different shards may straddle it (see DESIGN.md, "Sharding").
type Index struct {
	sh    *shard.Index   // serves every read and every in-memory mutation
	dur   *shard.Durable // owns sh when the index lives under a directory, else nil
	built time.Duration
}

// ErrNotDurable reports Sync or Checkpoint on an index that does not live
// under a directory.
var ErrNotDurable = errors.New("brepartition: index is not durable")

// Result carries the answer items and per-query statistics (I/O page
// reads, candidate count, filter/refine timing).
type Result = core.Result

// Query is one search request: the value behind every named search method
// and the one method, Query, that makes an Index an Engine Backend.
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

// DurableOptions configures a durable index: the shard knobs (Shards,
// Dim, Core) plus the durability policy — SyncEvery/SyncInterval set how
// mutations are fsynced (0/1 = every mutation, group-committed across
// concurrent mutators; N > 1 = every N mutations; negative = only on
// Sync/Close or the interval), SegmentSize sets the WAL segment roll
// threshold, and CheckpointBytes the WAL size that triggers a background
// checkpoint (negative disables it; call Checkpoint yourself).
type DurableOptions = shard.DurableOptions

// Build constructs an in-memory, one-shard index over points (each a
// d-dimensional row inside div's domain). opts may be nil for defaults.
// The coordinates are copied into the index's flat storage arenas; the
// caller's slices are not retained.
func Build(div Divergence, points [][]float64, opts *Options) (*Index, error) {
	return BuildSharded(div, points, 1, opts)
}

// BuildSharded hash-partitions points across shards core indexes (0 picks
// 4). opts configures every shard; when opts.M is 0 the Theorem-4 cost
// model is fitted once on the full dataset and the result pinned into all
// shards. Global ids are the dataset row numbers, exactly as in Build.
func BuildSharded(div Divergence, points [][]float64, shards int, opts *Options) (*Index, error) {
	start := time.Now()
	sh, err := shard.Build(div, points, shard.Options{Shards: shards, Core: deref(opts)})
	return inMemory(start, sh, err)
}

// ReadIndexFile loads a one-shard index persisted with WriteFile.
// Divergences are resolved from the built-in registry by name.
func ReadIndexFile(path string) (*Index, error) {
	start := time.Now()
	sh, err := shard.ReadFile(path)
	return inMemory(start, sh, err)
}

// OpenSharded loads a snapshot directory written by WriteDir. Every shard
// file is verified against the manifest's checksums before it is trusted;
// corruption anywhere fails the load with a descriptive error.
func OpenSharded(dir string) (*Index, error) {
	start := time.Now()
	sh, err := shard.ReadDir(dir, shard.Options{})
	return inMemory(start, sh, err)
}

// BuildDurable builds an index over points and makes it durable under
// directory root: the initial snapshot and an empty WAL are written before
// it returns. opts may be nil for defaults (4 shards, fsync every
// mutation, 8 MiB segments, 32 MiB checkpoint threshold).
func BuildDurable(div Divergence, points [][]float64, root string, opts *DurableOptions) (*Index, error) {
	start := time.Now()
	d, err := shard.BuildDurable(div, points, root, deref(opts))
	return durable(start, d, err)
}

// OpenDurable recovers a durable index from root: the newest valid
// snapshot is loaded (checksums verified, with the same crash-window
// fallback as OpenSharded) and the WAL tail past the snapshot's
// checkpoint is replayed. A torn record at the log's very end — the
// footprint of a crash mid-append — is dropped; corruption anywhere else
// fails with a descriptive error instead of serving an incomplete index.
func OpenDurable(root string, opts *DurableOptions) (*Index, error) {
	start := time.Now()
	d, err := shard.OpenDurable(root, deref(opts))
	return durable(start, d, err)
}

func deref[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

func inMemory(start time.Time, sh *shard.Index, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	return &Index{sh: sh, built: time.Since(start)}, nil
}

func durable(start time.Time, d *shard.Durable, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	return &Index{sh: d.Index(), dur: d, built: time.Since(start)}, nil
}

// Query answers q across all shards, appending the result items to dst;
// every named search method below is shorthand for one Query shape.
func (ix *Index) Query(dst []topk.Item, q *Query) (Result, error) { return ix.sh.Query(dst, q) }

// Search returns the exact k nearest neighbours of q under D_f(x, q).
func (ix *Index) Search(q []float64, k int) (Result, error) {
	return ix.sh.Query(nil, &Query{Vec: q, K: k})
}

// SearchAppend is Search appending the result items to dst, the
// steady-state zero-allocation query path of a one-shard index: every
// internal buffer comes from a pooled per-query context, so passing the
// previous result's truncated Items slice (res.Items[:0]) makes repeated
// queries allocate nothing at all. Result.Items is the extended dst.
func (ix *Index) SearchAppend(dst []topk.Item, q []float64, k int) (Result, error) {
	return ix.sh.Query(dst, &Query{Vec: q, K: k})
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p ∈ (0,1]; smaller p trades accuracy for speed (§8
// of the paper). Each of S shards searches with guarantee p^(1/S), so the
// independent per-shard guarantees compose back to ≥ p. p = 1 is exact
// search.
func (ix *Index) SearchApprox(q []float64, k int, p float64) (Result, error) {
	return ix.sh.Query(nil, &Query{Vec: q, K: k, Approx: true, P: p})
}

// RangeSearch returns every point with D_f(x, q) ≤ r, exactly, sorted
// ascending by (distance, id), together with the query's work statistics.
func (ix *Index) RangeSearch(q []float64, r float64) ([]Neighbor, SearchStats, error) {
	res, err := ix.sh.Query(nil, &Query{Vec: q, Range: true, Radius: r})
	if err != nil {
		return nil, res.Stats, err
	}
	return Neighbors(res), res.Stats, nil
}

// BatchSearch is a convenience one-shot batch: it answers all queries with
// k neighbours each using workers concurrent queries (0 = GOMAXPROCS).
// Results arrive in query order and match a sequential Search loop. For
// sustained traffic keep a NewEngine instead, so its statistics persist
// across batches.
func (ix *Index) BatchSearch(queries [][]float64, k, workers int) ([]Result, error) {
	return engine.New(ix.sh, engine.Config{Workers: workers}).BatchSearch(queries, k)
}

// Neighbors converts a Result's items into Neighbor values.
func Neighbors(res Result) []Neighbor {
	out := make([]Neighbor, len(res.Items))
	for i, it := range res.Items {
		out[i] = Neighbor{ID: it.ID, Distance: it.Score}
	}
	return out
}

// M returns the per-shard number of dimension partitions.
func (ix *Index) M() int { return ix.sh.M() }

// N returns the number of ids ever assigned (including tombstoned ones).
func (ix *Index) N() int { return ix.sh.N() }

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.sh.Dim() }

// Live returns the number of non-deleted points.
func (ix *Index) Live() int { return ix.sh.Live() }

// Shards returns the shard count.
func (ix *Index) Shards() int { return ix.sh.Shards() }

// ShardSizes returns how many ids each shard owns (balance diagnostics).
func (ix *Index) ShardSizes() []int { return ix.sh.ShardSizes() }

// BuildTime reports the wall time of the constructor that made the index.
func (ix *Index) BuildTime() time.Duration { return ix.built }

// Version counts the mutations (Insert/Delete) applied so far; a durable
// index's count is continuous across recovery. Two reads bracketed by
// equal Version values saw the same index state.
func (ix *Index) Version() uint64 { return ix.sh.Version() }

// Insert adds a point (the paper's §10 future-work item), assigns it the
// next global id, and routes it to the shard that owns that id; no other
// shard is locked. A durable index logs the point first: under the default
// sync policy the mutation is crash-durable when Insert returns, and only
// nil-error mutations are acknowledged. Searches stay exact; heavy churn
// loosens the ball bounds, so rebuild periodically for peak filtering.
func (ix *Index) Insert(p []float64) (int, error) {
	if ix.dur != nil {
		return ix.dur.Insert(p)
	}
	return ix.sh.Insert(p)
}

// Delete tombstones a point by id, reporting whether it was live. Deleted
// points never appear in results again. A durable index logs the
// tombstone first (a no-op delete writes no record), and a log failure is
// the error.
func (ix *Index) Delete(id int) (bool, error) {
	if ix.dur != nil {
		return ix.dur.Delete(id)
	}
	return ix.sh.Delete(id), nil
}

// Sync fsyncs the WAL through the last appended mutation — after it
// returns, every prior mutation is crash-durable regardless of policy.
func (ix *Index) Sync() error {
	if ix.dur == nil {
		return ErrNotDurable
	}
	return ix.dur.Sync()
}

// Checkpoint snapshots the index, commits it atomically tagged with the
// covered LSN, and truncates the WAL segments the snapshot absorbed.
// The background checkpointer calls this automatically past
// CheckpointBytes; explicit calls bound recovery time on demand.
func (ix *Index) Checkpoint() error {
	if ix.dur == nil {
		return ErrNotDurable
	}
	return ix.dur.Checkpoint()
}

// Close detaches the cold tier; on a durable index it first stops the
// background checkpointer, fsyncs outstanding records and closes the WAL.
// The directory remains recoverable with OpenDurable.
func (ix *Index) Close() error {
	if ix.dur != nil {
		return ix.dur.Close()
	}
	return ix.sh.CloseColdTier()
}

// LastLSN returns the highest appended WAL sequence number (0 without a
// WAL).
func (ix *Index) LastLSN() uint64 {
	if ix.dur == nil {
		return 0
	}
	return ix.dur.LastLSN()
}

// SyncedLSN returns the highest WAL sequence number known durable (0
// without a WAL).
func (ix *Index) SyncedLSN() uint64 {
	if ix.dur == nil {
		return 0
	}
	return ix.dur.SyncedLSN()
}

// WALSize returns the live WAL bytes, the checkpoint trigger metric (0
// without a WAL).
func (ix *Index) WALSize() int64 {
	if ix.dur == nil {
		return 0
	}
	return ix.dur.WALSize()
}

// WriteFile persists a one-shard index (partitioning, tuples, BB-forest)
// as one file, so a later process can skip the entire precomputation with
// ReadIndexFile. An index of more shards, or one with deleted points
// (the file format carries no tombstones), fails; use WriteDir.
func (ix *Index) WriteFile(path string) error { return ix.sh.WriteFile(path) }

// WriteDir persists the index as a snapshot directory for OpenSharded:
// one index file per shard plus a checksummed manifest, committed by
// atomic rename so the destination never holds a half-written snapshot.
// Mutations quiesce for the duration; searches proceed.
func (ix *Index) WriteDir(dir string) error { return ix.sh.WriteDir(dir) }

// AttachColdTier builds (or cheaply reopens, when dir already holds tiers
// matching the shards' versions) one cold tier per shard under dir: a
// resident compressed-domain VA approximation plus an mmap-paged copy of
// the points behind a bounded block cache. SearchCold then answers exact
// queries with memory bounded by the VA bytes plus the cache budget — the
// point set itself stays on disk.
func (ix *Index) AttachColdTier(dir string, o ColdTierOptions) error {
	return ix.sh.EnsureColdTier(dir, o)
}

// SearchCold is Search served from the attached cold tiers: the
// compressed-domain first pass prunes candidates in memory, and only the
// survivors fault their pages in. Answers are bit-identical to Search;
// a shard whose tier is missing or stale (mutated since AttachColdTier)
// serves its part of the query hot.
func (ix *Index) SearchCold(q []float64, k int) (Result, error) {
	return ix.sh.Query(nil, &Query{Vec: q, K: k, Cold: true})
}

// ColdStats sums the per-shard cold-tier counters; ok is false when no
// tier is attached.
func (ix *Index) ColdStats() (ColdTierStats, bool) { return ix.sh.ColdStats() }

// DetachColdTier closes every shard's cold tier (the on-disk files remain
// for a later AttachColdTier to reopen). No-op without a tier.
func (ix *Index) DetachColdTier() error { return ix.sh.CloseColdTier() }

// ---------------------------------------------------------------------------
// Concurrent batch query engine.
// ---------------------------------------------------------------------------

// EngineOptions tunes a query engine: Workers bounds concurrently executing
// queries (0 = GOMAXPROCS). CacheSize is deprecated and ignored: the
// engine caches no results.
type EngineOptions = engine.Config

// EngineStats is the aggregate service view of an engine: completed query
// count, summed page reads and candidates, wall time, QPS, and p50/p99
// latency. CacheHits is deprecated and always 0.
type EngineStats = engine.Stats

// Future is a handle to one in-flight query submitted to an Engine.
type Future = engine.Future

// Backend is any index an Engine can schedule over: one Query method.
// *Index implements it; a custom backend only needs Query to be safe for
// concurrent use.
type Backend = engine.Backend

// Engine is a concurrent batch query layer over one backend: a bounded
// pool of query workers, submit/await semantics, and aggregate
// statistics. Every query is searched; nothing is cached. It schedules
// queries only, and is safe for concurrent use against an index that is
// being mutated with Insert/Delete from other goroutines; each query sees
// one consistent snapshot of every shard.
type Engine struct {
	inner *engine.Engine
}

// NewEngine creates a query engine over any backend — an *Index or a
// custom Backend. opts may be nil for defaults (GOMAXPROCS workers).
func NewEngine(b Backend, opts *EngineOptions) *Engine {
	return &Engine{inner: engine.New(b, deref(opts))}
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

// SubmitQuery enqueues one query of any shape — approximate, filtered,
// range, cold — and returns its Future; a range query resolves to every
// point with D_f(x, q) ≤ r, ascending.
func (e *Engine) SubmitQuery(q Query) *Future { return e.inner.SubmitQuery(q) }

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
