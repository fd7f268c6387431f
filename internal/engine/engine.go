// Package engine is the concurrent batch query layer on top of any index
// layer with a Query method: a bounded pool of worker goroutines (one
// in-flight query each) drains a FIFO of core.Query values, a traced
// query has its queue wait, run time and search stats folded into its
// trace, and service-level statistics (QPS, latency percentiles, total
// page reads) are aggregated. It is the only queue on the query path and
// caches nothing: every query is searched.
//
// The engine schedules queries only. Mutations go to the index itself; the
// engine relies on the index's locking discipline — searches take the
// shared lock, Insert/Delete the exclusive one — so any number of engine
// workers may run against an index that is being mutated concurrently and
// each query sees one consistent snapshot.
//
// Hot-path cost model: each worker's query runs through the backend's
// pooled per-query SearchContext and the monomorphized divergence kernel
// the index picked at build time (internal/kernel), so a saturated batch
// performs no interface dispatch in its distance loops and no steady-state
// allocation beyond each query's result slice — the engine's own overhead
// is one future per query, which holds the query by value.
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
// one query method. The core index, the sharded index, the durable
// wrapper and the reload handle all implement it; the engine is agnostic
// to which one it drives, as long as Query is safe for concurrent use.
type Backend interface {
	Query(dst []topk.Item, q *core.Query) (core.Result, error)
}

// Config tunes the engine. The zero value asks for defaults.
type Config struct {
	// Workers bounds the number of concurrently executing queries
	// (0 = GOMAXPROCS).
	Workers int
	// Deprecated: CacheSize is ignored; the engine caches no results.
	// It is kept only because the benchmark module still sets it.
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Engine schedules queries against one core index. Submitted queries go
// onto a FIFO queue drained by at most Workers worker goroutines; workers
// are started on demand and exit when the queue empties, so an idle engine
// holds no goroutines and needs no Close.
type Engine struct {
	ix  Backend
	cfg Config

	qmu     sync.Mutex
	queue   []*Future  // submitted, not yet picked up by a worker
	running int        // worker goroutines alive, ≤ cfg.Workers
	idle    *sync.Cond // broadcast when queue empties and running drops to 0
	closed  bool       // Close called: new submissions fail with ErrClosed

	mu         sync.Mutex
	queries    int64
	errors     int64
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
	enq  time.Time // submission time, for the trace's queue span
}

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
	// possibly after the submitter stopped waiting (its deadline fired)
	// and dropped its own reference. Hold one for the job's lifetime; the
	// worker releases it after its last write.
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
		res, err := e.ix.Query(nil, &f.q)
		dur := time.Since(start)
		if tr := f.q.Trace; tr != nil {
			if err == nil {
				foldStats(tr, res.Stats)
			}
			tr.AddSpan(obs.StageQueue, start.Sub(f.enq))
			tr.AddSpan(obs.StageRun, dur)
			tr.Release() // pairs with the Retain in SubmitQuery; last trace write was above
		}
		f.q = core.Query{} // the future may outlive the query's vector, filter and trace
		f.res, f.err = res, err
		e.record(res, err, dur)
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

// foldStats lifts one result's search stats into the trace: the
// filter/refine/cold wall-time split becomes sub-spans of Run, the
// work counters accumulate.
func foldStats(tr *obs.Trace, st core.SearchStats) {
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

// record folds one finished query into the aggregate statistics.
func (e *Engine) record(res core.Result, err error, lat time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queries++
	e.lastDone = time.Now()
	if err != nil {
		e.errors++
		return
	}
	e.pageReads += int64(res.Stats.PageReads)
	e.candidates += int64(res.Stats.Candidates)
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
	// Queries counts completed queries (including errors).
	Queries int64
	// Errors counts queries that returned an error.
	Errors int64
	// Mutations is left 0 by the engine, which schedules only queries; a
	// serving layer that applies mutations beside it fills in its count.
	Mutations int64
	// Deprecated: CacheHits is always 0; the engine caches no results.
	// It is kept only because the benchmark module still reads it.
	CacheHits int64
	// PageReads and Candidates sum the per-query work of all successful
	// queries.
	PageReads  int64
	Candidates int64
	// Wall spans first submission to most recent completion.
	Wall time.Duration
	// QPS is Queries / Wall.
	QPS float64
	// P50 and P99 are latency percentiles over a fixed-size uniform
	// reservoir sample of all completed queries; memory stays constant
	// however long the engine runs.
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
		PageReads:  e.pageReads,
		Candidates: e.candidates,
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
