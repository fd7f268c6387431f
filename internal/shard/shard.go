// Package shard multiplies the BrePartition core index horizontally: a
// sharded index hash-partitions points across N independent core indexes
// and answers queries fork-join — every query runs all its shards itself
// (no per-shard queue), per-shard top-k answers are merged into the global
// top-k, and mutations route to the single shard that owns the point's id,
// so an Insert or Delete never locks more than one shard.
//
// This mirrors the paper's partitioned upper-bound pruning one level up:
// the paper partitions *dimensions* and merges per-subspace bounds; this
// layer partitions *points* and merges per-shard candidate heaps. Because
// every shard answers its exact local top-k with the same (distance, id)
// tie-break that the global brute-force oracle uses, the merged answer is
// bit-for-bit the single-index answer (the property test pins this).
//
// Locking model: a mutation takes the global id-map lock (which serializes
// mutations with each other and with snapshots) plus the owning shard's
// lock — never another shard's, so a mutation does not contend with the
// search work running inside other shards. Searches run lock-free against
// the id map except for a brief shared read when merging (translating
// local ids to global ids), which means queries overlap mutations except
// during that final merge step. This favors the read-dominated workloads
// the paper targets; sharding the id map itself is the upgrade path if
// mutation rates ever approach query rates.
//
// Consistency model: each mutation is atomic (it is confined to one shard
// plus the id map, both updated under locks), and a query observes every
// shard either entirely before or entirely after any given mutation. A
// query fanned across shards is NOT a global snapshot: two mutations to
// two different shards may straddle it. Snapshots (WriteDir) quiesce
// mutations via the id-map lock and are therefore globally consistent.
package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/obs"
	"brepartition/internal/partition"
	"brepartition/internal/topk"
)

// Options configures a sharded index.
type Options struct {
	// Shards is the number of hash partitions (0 = 4).
	Shards int
	// Dim fixes the dimensionality of an index built over zero points (a
	// freshly created collection that will be populated through Insert).
	// With one or more build points it is ignored — the points decide.
	// Build over zero points without Dim fails with core.ErrEmpty.
	Dim int
	// Core configures every per-shard core index. When Core.M is 0 the
	// Theorem-4 cost model is fitted once on the full dataset and the
	// resulting M pinned into every shard, so tiny shards do not derive
	// degenerate partitionings from their own small samples.
	Core core.Options
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	return o
}

// loc is the owning shard and the point's id inside it. A compacted-away
// tombstone — an id whose point no longer resides in any shard — is marked
// gone (shard = -1); it stays in the global id space (N() counts it, its
// tombstone survives snapshots) but owns no storage.
type loc struct {
	shard int32
	local int32
}

// goneLoc marks a global id whose tombstoned point compaction reclaimed.
var goneLoc = loc{shard: -1, local: -1}

// slot is one shard generation: a core index and the local→global id map
// for exactly that index. Compaction replaces a shard's slot wholesale
// (under the id-map write lock); a query that captured the old slot keeps
// searching and translating against it, so swaps never block or
// misdirect in-flight queries. l2g is append-only
// within a generation and strictly increasing, so local id order is
// global id order — the invariant the exact tie-break merge relies on.
type slot struct {
	sub *core.Index
	l2g []int
}

// Index is a sharded BrePartition index. All exported methods are safe for
// concurrent use; see the package comment for the consistency model.
type Index struct {
	div bregman.Divergence
	d   int
	// Model is the globally fitted cost model when Core.M was derived
	// (zero value otherwise).
	Model partition.CostModel

	opts Options

	// mu guards the id maps, the tombstone set, the version counter, and
	// the lazily created shard slots; it also serializes mutations against
	// snapshots (WriteDir holds the read side for its whole duration,
	// mutations the write side).
	mu sync.RWMutex
	// snapMu serializes WriteDir calls with each other: concurrent
	// snapshots to the same destination would race on the shared
	// .staging/.old commit paths. Always acquired before mu.
	snapMu sync.Mutex
	// compactMu serializes CompactShard calls: one off-path rebuild at a
	// time, so a slot is only ever replaced by the compaction that
	// snapshotted it. Always acquired before mu.
	compactMu sync.Mutex
	// slots[s] is the current generation of shard s, nil until the first
	// point routes to s. The slice itself is fixed-size; entries are
	// replaced only by CompactShard (and materialized by Insert).
	slots []*slot
	// globalLoc[g] is the owner of global id g (every id ever assigned,
	// tombstoned or not); goneLoc once compaction reclaims a tombstone.
	globalLoc []loc
	deleted   []bool
	nDeleted  int
	version   uint64

	// coldFallbacks counts cold searches a shard served hot because its
	// sub-index carried no tier (freshly compacted or never ensured); the
	// per-sub stale-version fallbacks live in each core.Index. See cold.go.
	coldFallbacks atomic.Int64
}

// splitmix64 is the id-to-shard hash: cheap, stateless, and well mixed
// even on the sequential ids Insert assigns.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardFor returns the owning shard of a global id. Pure function of the
// id, so routing never needs the map.
func (ix *Index) shardFor(global int) int {
	return int(splitmix64(uint64(global)) % uint64(len(ix.slots)))
}

// Build hash-partitions points across opts.Shards core indexes. Global ids
// are the dataset row numbers, exactly as in core.Build.
func Build(div bregman.Divergence, points [][]float64, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if len(points) == 0 {
		if opts.Dim <= 0 {
			return nil, core.ErrEmpty
		}
		// Empty index with a declared dimensionality: every shard slot is
		// materialized lazily by the first Insert it receives. The cost
		// model cannot be fitted on nothing, so M stays whatever Core.M
		// says (materialize falls back to 1 when unset).
		return &Index{
			div:   div,
			d:     opts.Dim,
			opts:  opts,
			slots: make([]*slot, opts.Shards),
		}, nil
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("shard: point %d has dimension %d, want %d", i, len(p), d)
		}
	}

	ix := &Index{
		div:       div,
		d:         d,
		opts:      opts,
		slots:     make([]*slot, opts.Shards),
		globalLoc: make([]loc, len(points)),
		deleted:   make([]bool, len(points)),
	}

	// Pin M globally before splitting, so every shard searches the same
	// partition count the full dataset's cost model asks for.
	if ix.opts.Core.M == 0 {
		samples := ix.opts.Core.CostSamples
		if samples <= 0 {
			samples = 50
		}
		optK := ix.opts.Core.OptimizerK
		if optK <= 0 {
			optK = 1
		}
		model, err := partition.FitCostModel(div, points, samples, ix.opts.Core.Seed)
		if err != nil {
			return nil, fmt.Errorf("shard: deriving M: %w", err)
		}
		ix.Model = model
		m := model.OptimalM(optK)
		if m < 1 {
			m = 1
		}
		if m > d {
			m = d
		}
		ix.opts.Core.M = m
	}

	// Scatter points to their owners, preserving global order per shard.
	shardPoints := make([][][]float64, opts.Shards)
	l2gs := make([][]int, opts.Shards)
	for g, p := range points {
		s := ix.shardFor(g)
		ix.globalLoc[g] = loc{shard: int32(s), local: int32(len(shardPoints[s]))}
		l2gs[s] = append(l2gs[s], g)
		shardPoints[s] = append(shardPoints[s], p)
	}
	for s, pts := range shardPoints {
		if len(pts) == 0 {
			continue
		}
		sub, err := core.Build(div, pts, ix.opts.Core)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		ix.slots[s] = &slot{sub: sub, l2g: l2gs[s]}
	}
	return ix, nil
}

// Shards returns the shard count.
func (ix *Index) Shards() int { return len(ix.slots) }

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.d }

// Divergence returns the divergence the index was built with.
func (ix *Index) Divergence() bregman.Divergence { return ix.div }

// N returns the number of ids ever assigned (including tombstoned ones).
func (ix *Index) N() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.globalLoc)
}

// Live returns the number of non-deleted points.
func (ix *Index) Live() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.globalLoc) - ix.nDeleted
}

// Deleted reports whether global id g has been removed.
func (ix *Index) Deleted(g int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return g >= 0 && g < len(ix.deleted) && ix.deleted[g]
}

// Version counts mutations applied through this index. Compaction leaves
// it alone, because it changes no answer.
func (ix *Index) Version() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.version
}

// ShardSizes returns the number of ids resident in each shard (including
// shard-local tombstones; compacted-away ids count nowhere). Use
// ShardLiveSizes for balance diagnostics — under deletes, resident counts
// overstate the shards that happened to absorb the tombstones.
func (ix *Index) ShardSizes() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sizes := make([]int, len(ix.slots))
	for s, sl := range ix.slots {
		if sl != nil {
			sizes[s] = len(sl.l2g)
		}
	}
	return sizes
}

// ShardLiveSizes returns the number of live (non-tombstoned) points each
// shard holds — the balance diagnostic that stays meaningful under heavy
// deletes, where ShardSizes counts dead weight.
func (ix *Index) ShardLiveSizes() []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sizes := make([]int, len(ix.slots))
	for s, sl := range ix.slots {
		if sl != nil {
			sizes[s] = sl.sub.Live()
		}
	}
	return sizes
}

// M returns the per-shard partition count (every shard uses the same
// pinned M; see Options.Core).
func (ix *Index) M() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, sl := range ix.slots {
		if sl != nil {
			return sl.sub.M()
		}
	}
	return 0
}

// snapshotSlots copies the current shard generations so work over every
// shard runs without holding the map lock.
func (ix *Index) snapshotSlots() []*slot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]*slot, len(ix.slots))
	copy(out, ix.slots)
	return out
}

// Search returns the exact k nearest neighbours of q across all shards.
func (ix *Index) Search(q []float64, k int) (core.Result, error) {
	return ix.Query(nil, &core.Query{Vec: q, K: k})
}

// Query answers q across all shards, appending the merged items (global
// ids) to dst. Ids and distances are identical to a single core index
// built over the same points, for every query shape:
//
//   - kNN and range answers merge exactly (see merge);
//   - an approximate search runs each of the S live shards with the
//     guarantee P^(1/S): the global answer is exact whenever every shard's
//     local answer is, and shard failures are independent, so the
//     per-shard guarantees multiply back to ≥ P (P = 1 stays exact);
//   - a filter is translated through each shard's local→global map and
//     pushed into that shard's bound selection and leaf emission;
//   - Cold is passed to the shards that carry a tier; the others serve
//     their part hot, counted in ColdFallbacks.
//
// The query runs its shards itself — one goroutine per live shard but the
// last, which runs in the caller — so an engine in front of the index is
// the only place it waits. With q.Trace set, one child span per live shard
// is recorded, its Run timed from the fork to that shard's answer.
func (ix *Index) Query(dst []topk.Item, q *core.Query) (core.Result, error) {
	if err := q.Validate(ix.div, ix.d); err != nil {
		return core.Result{}, err
	}
	parts := ix.fork(q)
	var start time.Time
	if q.Trace != nil {
		start = time.Now()
	}
	if n := len(parts); n > 0 {
		var wg sync.WaitGroup
		wg.Add(n - 1)
		for i := range parts[:n-1] {
			p := &parts[i]
			go func() {
				defer wg.Done()
				p.run(start)
			}()
		}
		parts[n-1].run(start)
		wg.Wait()
	}
	for i := range parts {
		p := &parts[i]
		if p.err != nil {
			return core.Result{}, p.err
		}
		q.Trace.AddShard(obs.ShardSpan{Shard: p.shard, Run: p.dur, Items: len(p.res.Items), Candidates: p.res.Stats.Candidates})
	}
	return ix.merge(dst, q, parts), nil
}

// part is one live shard's share of a query: the slot generation it runs
// against, its sub-query, and what it answered. A query's parts are one
// allocation.
type part struct {
	shard int
	sl    *slot
	q     core.Query
	res   core.Result
	err   error
	dur   time.Duration // fork to answer, traced queries only
}

// run answers the part's sub-query; a nonzero start times it.
func (p *part) run(start time.Time) {
	p.res, p.err = p.sl.sub.Query(nil, &p.q)
	if !start.IsZero() {
		p.dur = time.Since(start)
	}
}

// fork captures the live slot generations and derives each one's
// sub-query, so the shards answer, and merge translates, against exactly
// those generations — a compaction swap during the query cannot misdirect
// the local→global translation.
func (ix *Index) fork(q *core.Query) []part {
	// Capture the slot generations and, for a filter, their l2g slice
	// headers under one read lock: l2g is appended under the id-map write
	// lock and append may reallocate the backing array, so reading the
	// live slice header lock-free inside the per-shard predicate would
	// race. A local id at or past the captured length belongs to a point
	// inserted after the capture; treating it as non-matching is
	// consistent with the mutation-atomicity contract (the query observes
	// the index before that insert).
	ix.mu.RLock()
	parts := make([]part, 0, len(ix.slots))
	for s, sl := range ix.slots {
		if sl == nil {
			continue
		}
		p := part{shard: s, sl: sl, q: *q}
		p.q.Trace = nil
		if keep := q.Keep; keep != nil {
			l2g := sl.l2g
			p.q.Keep = func(id int) bool { return id < len(l2g) && keep(l2g[id]) }
		}
		parts = append(parts, p)
	}
	ix.mu.RUnlock()

	cold := q.ServesCold()
	for i := range parts {
		p := &parts[i]
		if q.Approx && len(parts) > 1 {
			p.q.P = math.Pow(q.P, 1/float64(len(parts)))
		}
		if cold {
			if p.q.Cold = p.sl.sub.HasColdTier(); !p.q.Cold {
				ix.coldFallbacks.Add(1)
			}
		}
	}
	return parts
}

// merge combines per-shard results into the global answer, appended to
// dst. Every shard contributed its exact local answer with ties broken by
// local id — and local id order is global id order within a shard — so
// sorting the union by (distance, global id) and, for kNN, truncating to K
// reproduces exactly the answer a single index over all points would give.
// Translation goes through the slots the query was forked to, under the
// id-map read lock: a slot's l2g only ever grows within its generation (a
// compaction installs a new slot object rather than touching the old one),
// so the captured map is valid for every local id the old generation could
// have answered with.
func (ix *Index) merge(dst []topk.Item, q *core.Query, parts []part) core.Result {
	var out core.Result
	total := 0
	for i := range parts {
		total += len(parts[i].res.Items)
	}
	all := slices.Grow(dst, total)

	fl := firstLive(parts)
	ix.mu.RLock()
	for i := range parts {
		p := &parts[i]
		for _, it := range p.res.Items {
			all = append(all, topk.Item{ID: p.sl.l2g[it.ID], Score: it.Score})
		}
		out.Stats = addStats(out.Stats, p.res.Stats, i == fl)
	}
	ix.mu.RUnlock()
	if out.Stats.ApproxC == 0 {
		out.Stats.ApproxC = 1 // no shard searched: trivially exact
	}

	// topk.Compare is the same (distance, global id) order every shard's
	// local answer used, so the merged truncation is exact; SortFunc keeps
	// the per-query merge allocation-free.
	merged := all[len(dst):]
	slices.SortFunc(merged, topk.Compare)
	if !q.Range && len(merged) > q.K {
		all = all[:len(dst)+q.K]
	}
	out.Items = all
	return out
}

// firstLive returns the index of the first part that answered (its stats
// seed the BoundTotal min).
func firstLive(parts []part) int {
	for i := range parts {
		if r := &parts[i].res; len(r.Items) > 0 || r.Stats.Candidates > 0 {
			return i
		}
	}
	return 0
}

// addStats folds one shard's work into the aggregate: work counters and
// phase times sum (total cost across the fleet), BoundTotal keeps the
// tightest per-shard bound, ApproxC the smallest per-shard coefficient
// (the loosest shard bounds the whole answer's guarantee; 1 when every
// shard searched exactly).
func addStats(agg, s core.SearchStats, first bool) core.SearchStats {
	agg.PageReads += s.PageReads
	agg.Candidates += s.Candidates
	agg.NodesVisited += s.NodesVisited
	agg.LeavesVisited += s.LeavesVisited
	agg.DistanceComps += s.DistanceComps
	agg.FilterTime += s.FilterTime
	agg.RefineTime += s.RefineTime
	agg.ColdScanned += s.ColdScanned
	agg.ColdPruned += s.ColdPruned
	agg.ColdPageFaults += s.ColdPageFaults
	agg.ColdCacheHits += s.ColdCacheHits
	agg.ColdTime += s.ColdTime
	if s.ApproxC > 0 && (agg.ApproxC == 0 || s.ApproxC < agg.ApproxC) {
		agg.ApproxC = s.ApproxC
	}
	if first || (s.BoundTotal > 0 && s.BoundTotal < agg.BoundTotal) {
		agg.BoundTotal = s.BoundTotal
	}
	return agg
}

// Insert adds a point, assigns it the next global id, and routes it to
// the owning shard; no other shard's lock is taken (the global id-map
// lock serializes mutations with each other, not with in-shard search
// work). An empty shard slot is materialized as a fresh single-point core
// index on first use.
func (ix *Index) Insert(p []float64) (int, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(p) != ix.d {
		return 0, core.DimError(len(p), ix.d)
	}
	g := len(ix.globalLoc)
	s := ix.shardFor(g)
	var local int
	if ix.slots[s] == nil {
		sub, err := ix.materialize(p)
		if err != nil {
			return 0, err
		}
		ix.slots[s] = &slot{sub: sub}
		local = 0
	} else {
		var err error
		local, err = ix.slots[s].sub.Insert(p)
		if err != nil {
			return 0, err
		}
	}
	ix.globalLoc = append(ix.globalLoc, loc{shard: int32(s), local: int32(local)})
	ix.slots[s].l2g = append(ix.slots[s].l2g, g)
	ix.deleted = append(ix.deleted, false)
	ix.version++
	return g, nil
}

// materialize builds a fresh single-point core index for an empty shard
// slot (first routed point, or a compaction that emptied the shard).
func (ix *Index) materialize(p []float64) (*core.Index, error) {
	copts := ix.opts.Core
	if copts.M <= 0 {
		// Build pins M > 0 and snapshots carry it, so this is only
		// reachable through a legacy or hand-built Options value; the
		// cost model cannot fit a single point, so fall back to M=1.
		copts.M = 1
	}
	return core.Build(ix.div, [][]float64{append([]float64(nil), p...)}, copts)
}

// Delete tombstones global id g, reporting whether it was live. Like
// Insert it takes the id-map lock plus the owning shard's lock only.
func (ix *Index) Delete(g int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if g < 0 || g >= len(ix.globalLoc) || ix.deleted[g] {
		return false
	}
	l := ix.globalLoc[g]
	ix.slots[l.shard].sub.Delete(int(l.local))
	ix.deleted[g] = true
	ix.nDeleted++
	ix.version++
	return true
}
