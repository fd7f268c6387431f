package server

import (
	"context"
	"sync"
	"time"

	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/obs"
)

// coalescer is the request micro-batcher: concurrent single-query search
// requests land in a per-k bucket, and the bucket dispatches as one
// batch of engine submissions when either trigger fires — it reaches
// maxBatch queries (size trigger) or its oldest query has waited
// maxDelay (time trigger). Under open-loop load the window fills in
// well under maxDelay and the server amortizes scheduler wakeups and
// stats bookkeeping across the whole batch; an isolated request pays at
// most maxDelay of extra latency.
//
// Buckets are keyed by k because one batch answers one k; mixed-k
// traffic coalesces per k independently.
type coalescer struct {
	eng      *engine.Engine
	maxBatch int
	maxDelay time.Duration

	mu      sync.Mutex
	buckets map[int]*bucket
	closed  bool

	// batches counts dispatched batch calls, folded the queries
	// they carried: folded/batches is the realized mean batch size.
	batches counter
	folded  counter
}

// qresult is one coalesced query's answer, delivered on a buffered
// channel so a flush never blocks on an abandoned (timed-out) request.
type qresult struct {
	res core.Result
	err error
}

// waiter is one parked request: its result channel plus, when the
// request is traced, the trace and the enqueue instant (so flush can
// record the realized coalescing delay as StageCoalesce). Untraced
// requests leave tr nil and skip the clock read entirely.
type waiter struct {
	ch  chan qresult
	tr  *obs.Trace
	enq time.Time
}

type bucket struct {
	k       int
	queries [][]float64
	waiters []waiter
	timer   *time.Timer
}

func newCoalescer(eng *engine.Engine, maxBatch int, maxDelay time.Duration) *coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &coalescer{
		eng:      eng,
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		buckets:  make(map[int]*bucket),
	}
}

// search answers one query through the coalescing window, honoring ctx:
// when the deadline fires first the request abandons its slot (the query
// still completes inside its batch; only the response is given up). A
// trace carried by ctx rides along into the batch.
func (c *coalescer) search(ctx context.Context, q []float64, k int) (core.Result, error) {
	w := c.submit(obs.From(ctx), q, k)
	select {
	case r := <-w:
		return r.res, r.err
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

func (c *coalescer) submit(tr *obs.Trace, q []float64, k int) chan qresult {
	w := waiter{ch: make(chan qresult, 1), tr: tr}
	if tr != nil {
		w.enq = time.Now()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		w.ch <- qresult{err: engine.ErrClosed}
		return w.ch
	}
	b := c.buckets[k]
	if b == nil {
		b = &bucket{k: k}
		c.buckets[k] = b
	}
	// The bucket may outlive the request (ctx cancel abandons the slot
	// while the batch still dispatches), so the waiter holds its own
	// trace reference until flush hands the trace to the engine.
	w.tr.Retain()
	b.queries = append(b.queries, q)
	b.waiters = append(b.waiters, w)
	switch {
	case len(b.queries) >= c.maxBatch:
		// Size trigger: detach and dispatch now.
		c.detachLocked(b)
		c.mu.Unlock()
		go c.flush(b)
	case len(b.queries) == 1 && c.maxDelay <= 0:
		// Windowless configuration: every query dispatches immediately
		// (coalescing still folds whatever arrived in the same instant,
		// which with len==1 dispatch is just this query).
		c.detachLocked(b)
		c.mu.Unlock()
		go c.flush(b)
	case len(b.queries) == 1:
		// First query arms the time trigger for the bucket.
		b.timer = time.AfterFunc(c.maxDelay, func() { c.fire(b) })
		c.mu.Unlock()
	default:
		c.mu.Unlock()
	}
	return w.ch
}

// detachLocked removes b from the bucket map (callers hold c.mu) and
// disarms its timer so the time trigger cannot double-dispatch.
func (c *coalescer) detachLocked(b *bucket) {
	if c.buckets[b.k] == b {
		delete(c.buckets, b.k)
	}
	if b.timer != nil {
		b.timer.Stop()
	}
}

// fire is the time trigger: dispatch b unless the size trigger (or
// close) already did.
func (c *coalescer) fire(b *bucket) {
	c.mu.Lock()
	if c.buckets[b.k] != b {
		c.mu.Unlock()
		return
	}
	c.detachLocked(b)
	c.mu.Unlock()
	c.flush(b)
}

// flush folds the bucket into one batch of engine submissions and fans
// the answers back out. Each waiter gets its own query's result or
// error — batch membership is a scheduling artifact, so one member's
// failure never fails the others (a systemic error like
// engine.ErrClosed simply surfaces on every member's own future).
// Traced members record their realized window delay and have
// queue/run/scan spans recorded by the engine per query.
func (c *coalescer) flush(b *bucket) {
	c.batches.Add(1)
	c.folded.Add(int64(len(b.queries)))
	dispatch := time.Now()
	futs := make([]*engine.Future, len(b.queries))
	for i, q := range b.queries {
		w := b.waiters[i]
		if w.tr != nil {
			w.tr.AddSpan(obs.StageCoalesce, dispatch.Sub(w.enq))
		}
		futs[i] = c.eng.SubmitQuery(core.Query{Vec: q, K: b.k, Trace: w.tr})
		// The engine job took its own trace reference; the waiter's last
		// write was the coalesce span above, so its reference drops here.
		w.tr.Release()
	}
	for i, f := range futs {
		res, err := f.Wait()
		b.waiters[i].ch <- qresult{res: res, err: err}
	}
}

// close dispatches every pending bucket synchronously (their waiters get
// real answers) and fails all later submissions with engine.ErrClosed.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := make([]*bucket, 0, len(c.buckets))
	for _, b := range c.buckets {
		pending = append(pending, b)
	}
	for _, b := range pending {
		c.detachLocked(b)
	}
	c.mu.Unlock()
	for _, b := range pending {
		c.flush(b)
	}
}
