// Package engine is the concurrent batch query layer on top of any index
// layer with a Query method: a bounded pool of worker goroutines (one
// in-flight query each) drains a FIFO of core.Query values, an LRU result
// cache is shared across in-flight queries, a traced query has its queue
// wait, run time and search stats folded into its trace, and service-level
// statistics (QPS, latency percentiles, total page reads) are aggregated.
//
// The engine relies on the core index's locking discipline: searches take
// the index's shared lock, mutations (Insert/Delete) its exclusive lock,
// so any number of engine workers may run against an index that is being
// mutated concurrently and each query sees one consistent snapshot. Cached
// results are tagged with the index version observed during the search and
// are never served across a mutation.
//
// Hot-path cost model: each worker's query runs through the backend's
// pooled per-query SearchContext and the monomorphized divergence kernel
// the index picked at build time (internal/kernel), so a saturated batch
// performs no interface dispatch in its distance loops and no steady-state
// allocation beyond each query's result slice — the engine's own overhead
// is one future (which holds the query by value) and the shared-cache
// bookkeeping per query.
package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"brepartition/internal/core"
	"brepartition/internal/obs"
	"brepartition/internal/topk"
)

// Backend is the index surface the engine schedules over: every layer's
// one query method plus the mutation counter. The core index, the sharded
// index, the durable wrapper and the reload handle all implement it; the
// engine is agnostic to which one it drives, as long as the backend's
// methods are safe for concurrent use and Version changes on every
// mutation (the result-cache invariant).
type Backend interface {
	Query(dst []topk.Item, q *core.Query) (core.Result, error)
	Version() uint64
}

// MutableBackend is the optional mutation surface. The engine routes
// Insert/Delete through itself so services can hand one Engine handle to
// both read and write paths: mutations are counted in the aggregate stats
// and the result cache invalidates automatically (it keys on Version,
// which every mutation advances).
type MutableBackend interface {
	Backend
	Insert(p []float64) (int, error)
	Delete(id int) bool
}

// durableDeleter is the Delete shape of a durability-wrapped index, which
// also reports WAL errors. The engine prefers it over MutableBackend's
// bool-only Delete when the backend offers it.
type durableDeleter interface {
	Delete(id int) (bool, error)
}

// ErrNoMutate reports Insert/Delete against a read-only backend.
var ErrNoMutate = errors.New("engine: backend does not support mutations")

// Config tunes the engine. The zero value asks for defaults.
type Config struct {
	// Workers bounds the number of concurrently executing queries
	// (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the result-cache capacity in entries (0 = 1024,
	// negative disables caching).
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	return c
}

// Engine schedules queries against one core index. Submitted queries go
// onto a FIFO queue drained by at most Workers worker goroutines; workers
// are started on demand and exit when the queue empties, so an idle engine
// holds no goroutines and needs no Close.
type Engine struct {
	ix    Backend
	cfg   Config
	cache *resultCache

	qmu     sync.Mutex
	queue   []*Future  // submitted, not yet picked up by a worker
	running int        // worker goroutines alive, ≤ cfg.Workers
	idle    *sync.Cond // broadcast when queue empties and running drops to 0
	closed  bool       // Close called: new submissions fail with ErrClosed

	mu         sync.Mutex
	queries    int64
	errors     int64
	mutations  int64
	pageReads  int64
	candidates int64
	started    time.Time // first submission
	lastDone   time.Time // most recent completion
	// lat is a fixed-size uniform reservoir (Vitter's Algorithm R) over
	// every completed query's latency: long-running durable workloads see
	// constant memory, and the percentiles estimate the whole run rather
	// than just the most recent window.
	lat     []time.Duration
	latSeen int64 // completed queries offered to the reservoir
	latRNG  *rand.Rand
}

// maxLatSamples bounds the latency reservoir; with 16Ki samples the p99
// estimate stays stable while memory stays constant under sustained load.
const maxLatSamples = 1 << 14

// New creates an engine over any backend. cfg may be the zero value for
// defaults.
func New(ix Backend, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{ix: ix, cfg: cfg, latRNG: rand.New(rand.NewSource(1))}
	e.idle = sync.NewCond(&e.qmu)
	if cfg.CacheSize > 0 {
		e.cache = newResultCache(cfg.CacheSize)
	}
	return e
}

// Workers returns the effective query-level concurrency bound.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Future is a handle to one submitted query. It doubles as the queued
// job: q is the query to run, held by value and cleared once it ran.
type Future struct {
	q    core.Query
	done chan struct{}
	res  core.Result
	err  error

	// Timing, written by submit (enq) and the worker (queued, runDur)
	// before done closes; valid to read only after Wait/WaitContext
	// observed completion.
	enq    time.Time
	queued time.Duration
	runDur time.Duration
}

// QueueWait returns how long the job sat in the engine queue before a
// worker picked it up. Valid after the future resolved.
func (f *Future) QueueWait() time.Duration { return f.queued }

// RunTime returns the worker's wall time for the job. Valid after the
// future resolved.
func (f *Future) RunTime() time.Duration { return f.runDur }

// Wait blocks until the query completes and returns its result.
func (f *Future) Wait() (core.Result, error) {
	<-f.done
	return f.res, f.err
}

// WaitContext is Wait with a deadline: if ctx expires first it returns
// the context's error while the query keeps running to completion in the
// background (its work is already scheduled; a later Wait still gets the
// answer). Serving layers use this to honor per-request deadlines.
func (f *Future) WaitContext(ctx context.Context) (core.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// ErrClosed reports a submission against a closed engine.
var ErrClosed = errors.New("engine: closed")

// Submit enqueues one exact kNN query and returns immediately.
func (e *Engine) Submit(q []float64, k int) *Future {
	return e.SubmitQuery(core.Query{Vec: q, K: k})
}

// SubmitQuery enqueues q — any shape the backend's Query accepts — and
// returns immediately; the query runs as soon as a worker slot frees up.
// A range query resolves to a Result whose Items are every point within
// the radius, ascending. With q.Trace set the worker records the queue
// wait, the run time and the result's search stats into it.
func (e *Engine) SubmitQuery(q core.Query) *Future {
	e.mu.Lock()
	if e.started.IsZero() {
		e.started = time.Now()
	}
	e.mu.Unlock()

	f := &Future{done: make(chan struct{}), enq: time.Now()}
	e.qmu.Lock()
	if e.closed {
		e.qmu.Unlock()
		f.err = ErrClosed
		close(f.done)
		return f
	}
	// The worker writes spans/counters into the trace until it finishes —
	// possibly after the submitter stopped waiting (deadline, abandoned
	// coalesce slot) and dropped its own reference. Hold one for the
	// job's lifetime; the worker releases it after its last write.
	q.Trace.Retain()
	f.q = q
	e.queue = append(e.queue, f)
	if e.running < e.cfg.Workers {
		e.running++
		go e.worker()
	}
	e.qmu.Unlock()
	return f
}

// QueueDepth returns the number of submitted queries not yet picked up by
// a worker — the backlog an admission-control layer sheds on.
func (e *Engine) QueueDepth() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return len(e.queue)
}

// InFlight returns the number of worker goroutines currently executing
// queries.
func (e *Engine) InFlight() int {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return e.running
}

// Drain blocks until every submitted query has completed and all workers
// have gone idle. Queries submitted while Drain waits are drained too; it
// is the caller's job to stop submitting first (Close does both).
func (e *Engine) Drain() {
	e.qmu.Lock()
	for len(e.queue) > 0 || e.running > 0 {
		e.idle.Wait()
	}
	e.qmu.Unlock()
}

// Close marks the engine closed — every later Submit resolves its Future
// immediately with ErrClosed — and drains in-flight queries: when Close
// returns, no engine goroutine is running and every previously returned
// Future is resolved. Close is idempotent; the backend index is not
// touched (it may outlive the engine or be shared).
func (e *Engine) Close() error {
	e.qmu.Lock()
	e.closed = true
	for len(e.queue) > 0 || e.running > 0 {
		e.idle.Wait()
	}
	e.qmu.Unlock()
	return nil
}

// worker drains the queue one job at a time and exits when it is empty.
func (e *Engine) worker() {
	for {
		e.qmu.Lock()
		if len(e.queue) == 0 {
			e.queue = nil // release the drained backing array
			e.running--
			if e.running == 0 {
				e.idle.Broadcast()
			}
			e.qmu.Unlock()
			return
		}
		f := e.queue[0]
		e.queue[0] = nil // drop the reference for the GC
		e.queue = e.queue[1:]
		e.qmu.Unlock()

		start := time.Now()
		f.queued = start.Sub(f.enq)
		res, cached, err := e.searchOne(&f.q)
		dur := time.Since(start)
		f.runDur = dur
		if tr := f.q.Trace; tr != nil {
			tr.AddSpan(obs.StageQueue, f.queued)
			tr.AddSpan(obs.StageRun, dur)
			tr.Release() // pairs with the Retain in SubmitQuery; last trace write was above
		}
		f.q = core.Query{} // the future may outlive the query's vector, filter and trace
		f.res, f.err = res, err
		e.record(res, cached, err, dur)
		close(f.done)
	}
}

// BatchSearch answers all queries with k neighbours each, running up to
// Workers of them concurrently. Results arrive in query order and are
// identical to a sequential Search loop over the same index state. The
// first error (if any) is returned after every query has settled.
func (e *Engine) BatchSearch(queries [][]float64, k int) ([]core.Result, error) {
	futures := make([]*Future, len(queries))
	for i, q := range queries {
		futures[i] = e.Submit(q, k)
	}
	out := make([]core.Result, len(queries))
	var firstErr error
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[i] = res
	}
	return out, firstErr
}

// Insert routes a point insertion to the backend (which must be mutable:
// a core index, a sharded index, or a durable index — all three share one
// Insert signature). The result cache needs no explicit flush — it keys
// on the backend Version, which the mutation advances.
func (e *Engine) Insert(p []float64) (int, error) {
	b, ok := e.ix.(interface {
		Insert(p []float64) (int, error)
	})
	if !ok {
		return 0, ErrNoMutate
	}
	id, err := b.Insert(p)
	if err == nil {
		e.mu.Lock()
		e.mutations++
		e.mu.Unlock()
	}
	return id, err
}

// Delete routes a tombstone to the backend, reporting whether the id was
// live. Against a durable backend a WAL failure surfaces as the error.
func (e *Engine) Delete(id int) (bool, error) {
	var (
		ok  bool
		err error
	)
	switch b := e.ix.(type) {
	case durableDeleter:
		ok, err = b.Delete(id)
	case MutableBackend:
		ok = b.Delete(id)
	default:
		return false, ErrNoMutate
	}
	if ok && err == nil {
		e.mu.Lock()
		e.mutations++
		e.mu.Unlock()
	}
	return ok, err
}

// searchOne answers a single query. Exact unfiltered kNN consults the
// shared result cache, which is keyed on (version, k, vector) and knows
// nothing about predicates, guarantees or radii; cached reports whether
// the answer was served without searching (its scan counters stay zero in
// the trace — the work happened when the entry was populated). A searched
// result's stats fold into the query's trace, once.
func (e *Engine) searchOne(q *core.Query) (res core.Result, cached bool, err error) {
	cacheable := e.cache != nil && q.ExactKNN()
	var ver uint64
	if cacheable {
		ver = e.ix.Version()
		if res, ok := e.cache.get(ver, q.K, q.Vec); ok {
			q.Trace.MarkCached()
			return res, true, nil
		}
	}
	res, err = e.ix.Query(nil, q)
	if err != nil {
		return res, false, err
	}
	foldStats(q.Trace, res.Stats)
	if cacheable && e.ix.Version() == ver {
		// The version did not move across the search, so the result is
		// exactly the snapshot tagged ver; safe to share. (If a mutation
		// raced the search, skip caching: the result is still correct for
		// the snapshot the search locked, but that snapshot has no stable
		// version to key on.)
		e.cache.put(ver, q.K, q.Vec, res)
	}
	return res, false, nil
}

// foldStats lifts one result's search stats into the trace: the
// filter/refine/cold wall-time split becomes sub-spans of Run, the
// work counters accumulate.
func foldStats(tr *obs.Trace, st core.SearchStats) {
	if tr == nil {
		return
	}
	tr.AddSpan(obs.StageScan, st.FilterTime)
	tr.AddSpan(obs.StageRefine, st.RefineTime)
	tr.AddSpan(obs.StageCold, st.ColdTime)
	tr.Add(obs.Counters{
		Nodes:         int64(st.NodesVisited),
		Leaves:        int64(st.LeavesVisited),
		Candidates:    int64(st.Candidates),
		DistanceComps: int64(st.DistanceComps),
		PageReads:     int64(st.PageReads),
		ColdScanned:   int64(st.ColdScanned),
		ColdPruned:    int64(st.ColdPruned),
		ColdFaults:    int64(st.ColdPageFaults),
		ColdHits:      int64(st.ColdCacheHits),
	})
}

// record folds one finished query into the aggregate statistics. Cache
// hits count as queries and latency samples but not as search work: their
// page reads happened once, when the entry was populated.
func (e *Engine) record(res core.Result, cached bool, err error, lat time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries++
	e.lastDone = time.Now()
	if err != nil {
		e.errors++
		return
	}
	if !cached {
		e.pageReads += int64(res.Stats.PageReads)
		e.candidates += int64(res.Stats.Candidates)
	}
	e.latSeen++
	if len(e.lat) < maxLatSamples {
		e.lat = append(e.lat, lat)
	} else if j := e.latRNG.Int63n(e.latSeen); j < maxLatSamples {
		// Algorithm R: the i-th sample replaces a random slot with
		// probability cap/i, keeping every completed query equally likely
		// to be in the reservoir.
		e.lat[j] = lat
	}
}

// Stats is the aggregate service view of everything the engine answered.
type Stats struct {
	// Queries counts completed queries (including errors and cache hits).
	Queries int64
	// Errors counts queries that returned an error.
	Errors int64
	// Mutations counts successful Insert/Delete calls routed through the
	// engine.
	Mutations int64
	// CacheHits counts queries served from the shared result cache.
	CacheHits int64
	// PageReads and Candidates sum the per-query work of all non-cached
	// successful queries.
	PageReads  int64
	Candidates int64
	// Wall spans first submission to most recent completion.
	Wall time.Duration
	// QPS is Queries / Wall.
	QPS float64
	// P50 and P99 are latency percentiles over a fixed-size uniform
	// reservoir sample of all completed queries (cache hits included —
	// they are real service time); memory stays constant however long
	// the engine runs.
	P50, P99 time.Duration
	// QueueDepth and InFlight snapshot the scheduler at Stats time:
	// submitted-but-not-started queries and queries currently executing.
	QueueDepth int
	InFlight   int
}

// Stats snapshots the aggregate statistics.
func (e *Engine) Stats() Stats {
	e.qmu.Lock()
	depth, inflight := len(e.queue), e.running
	e.qmu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		QueueDepth: depth,
		InFlight:   inflight,
		Queries:    e.queries,
		Errors:     e.errors,
		Mutations:  e.mutations,
		PageReads:  e.pageReads,
		Candidates: e.candidates,
	}
	if e.cache != nil {
		st.CacheHits = e.cache.hitCount()
	}
	if !e.started.IsZero() && e.lastDone.After(e.started) {
		st.Wall = e.lastDone.Sub(e.started)
		st.QPS = float64(e.queries) / st.Wall.Seconds()
	}
	if len(e.lat) > 0 {
		sorted := make([]time.Duration, len(e.lat))
		copy(sorted, e.lat)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.P50 = percentile(sorted, 0.50)
		st.P99 = percentile(sorted, 0.99)
	}
	return st
}

// percentile returns the p-quantile of sorted by the nearest-rank method:
// the smallest sample ≥ p of the distribution, so the worst observation is
// reportable as P99 even with few samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
