// Package server is the breserved network serving layer: it puts named
// collections — independent durable sharded BrePartition indexes — behind
// one HTTP process with the things a production front-end needs beyond
// marshalling:
//
//   - multi-tenant collections: /v2/collections/{name}/... routes address
//     independent indexes, each with its own divergence, geometry, shard
//     layout, tag store, engine, maintainer, and admission quota;
//     /v2/collections CRUD creates and drops them live. The /v1 routes
//     remain a thin delegation to the "default" collection, so
//     pre-collections clients keep working bit-identically;
//   - one serving path: every search request, JSON or binary, single or
//     batch, of any query shape, passes the same admission function and
//     is submitted to its collection's engine the moment it is admitted —
//     there is no batching window;
//   - admission control: global per-class bounded in-flight gates (search,
//     mutation, admin) shed excess load with 429 + Retry-After, and each
//     collection may carry its own quota (spec.Quota) shedding with the
//     "quota" error code so one noisy tenant cannot starve the rest;
//   - filtered search: a JSON search carrying a tag filter answers the
//     exact top-k over only matching points — the predicate is pushed into
//     the leaf scan, never applied after the fact;
//   - observability and operability: /metrics with per-collection labels,
//     /healthz, and collection-scoped /admin/{reload,checkpoint,compact}
//     (?collection=name); the unscoped form sweeps every collection and
//     reports per-collection outcomes, one failure never stranding the
//     rest.
//
// Wire surface: compact JSON on per-route endpoints plus the
// length-prefixed binary protocol of internal/wire on /v1/frame, whose v2
// frames carry a collection name (v1 frames route to "default").
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"brepartition/internal/approx"
	"brepartition/internal/bregman"
	"brepartition/internal/coldtier"
	"brepartition/internal/collection"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/maintain"
	"brepartition/internal/obs"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

// Config tunes the serving layer. The zero value asks for defaults.
type Config struct {
	// MaxInFlight bounds concurrently admitted search-class requests
	// (search/approx/range, JSON or binary) across all collections;
	// excess load is shed with 429 (0 = 4×GOMAXPROCS). It is also the
	// fallback per-collection quota when a spec sets Quota with zero
	// MaxInflight.
	MaxInFlight int
	// MaxMutations bounds concurrently admitted mutation requests
	// (0 = 64).
	MaxMutations int
	// Timeout is the default per-request deadline (0 = 2s). Clients may
	// lower or raise it per request with X-Timeout-Ms, capped at
	// MaxTimeout (0 = 30s).
	Timeout    time.Duration
	MaxTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses, rounded
	// up to whole seconds as the header requires (0 = 1s).
	RetryAfter time.Duration
	// Engine tunes each collection's query engine: how many queries run
	// at once.
	Engine engine.Config
	// MaintainInterval enables each collection's background shard
	// maintainer: every interval it sweeps per-shard health and compacts
	// shards past their thresholds (0 disables the loops; POST
	// /admin/compact still sweeps on demand).
	MaintainInterval time.Duration
	// MaintainMinLive, MaintainMaxTail, and MaintainMinPoints override
	// the maintainers' compaction thresholds (zero keeps the maintain
	// package defaults: 0.5, 0.25, 64).
	MaintainMinLive   float64
	MaintainMaxTail   float64
	MaintainMinPoints int
	// ColdTierEnabled routes every collection's exact searches through a
	// per-shard cold tier: a resident compressed-domain first pass over
	// mmap-paged point storage with a bounded block cache. Answers are
	// identical to hot serving; memory for point data is bounded by the
	// tier budget. Collections whose spec carries its own Cold section
	// keep their spec settings.
	ColdTierEnabled bool
	// ColdTier tunes the tiers when ColdTierEnabled (zero = defaults:
	// 6 bits, 16 MiB cache per shard, prefetch 4).
	ColdTier coldtier.Config
	// TraceSample is the fraction of search-class requests that get a
	// full stage-timing trace (0 = none, 1 = all; sampling is
	// deterministic, every round(1/rate)-th request). Untraced requests
	// still record the total-duration histogram; traced ones add the
	// per-stage breakdown, per-shard child spans, and scan counters. A
	// client can force a trace on any single request with the
	// X-Trace-Id header (hex) or the binary frame's trace field,
	// regardless of the sample rate.
	TraceSample float64
	// SlowQueryThreshold enables the structured slow-query log: any
	// search-class request slower than this emits one JSON line (via
	// SlowQueryLog) with the full stage breakdown and scan counters.
	// Enabling it traces every search-class request so the breakdown
	// exists when a query turns out slow (0 disables).
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query records; nil with a nonzero
	// threshold logs to a JSON handler on os.Stderr.
	SlowQueryLog *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxMutations <= 0 {
		c.MaxMutations = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// gate is one admission-control class: a bounded in-flight semaphore
// whose overflow is shed, never queued.
type gate struct {
	sem  chan struct{}
	shed counter
}

func newGate(capacity int) *gate { return &gate{sem: make(chan struct{}, capacity)} }

func (g *gate) tryAcquire() bool {
	select {
	case g.sem <- struct{}{}:
		return true
	default:
		g.shed.Add(1)
		return false
	}
}

func (g *gate) release() { <-g.sem }

// inUse reports the currently admitted requests (a queue-depth gauge).
func (g *gate) inUse() int { return len(g.sem) }

// quotaGate is a collection's admission quota: a bounded in-flight
// semaphore plus a bounded wait queue. A request past the queue bound
// sheds immediately with ErrQuota; a queued request waits for an
// in-flight slot under its deadline. The global class gates cap the
// whole process; the quota carves each tenant's share out of it.
type quotaGate struct {
	inflight chan struct{}
	queue    chan struct{}
}

func newQuotaGate(q wire.Quota, defInflight int) *quotaGate {
	inflight := q.MaxInflight
	if inflight <= 0 {
		inflight = defInflight
	}
	queue := q.MaxQueue
	if queue <= 0 {
		queue = inflight
	}
	return &quotaGate{
		inflight: make(chan struct{}, inflight),
		queue:    make(chan struct{}, inflight+queue),
	}
}

func (g *quotaGate) acquire(ctx context.Context) error {
	select {
	case g.queue <- struct{}{}:
	default:
		return fmt.Errorf("%w: collection in-flight and queue limits reached", wire.ErrQuota)
	}
	select {
	case g.inflight <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-g.queue
		return ctx.Err()
	}
}

func (g *quotaGate) release() {
	<-g.inflight
	<-g.queue
}

func (g *quotaGate) inUse() int { return len(g.inflight) }

// tenant is one collection's serving pipeline: its engine, maintainer,
// quota, and counters.
type tenant struct {
	col   *collection.Collection
	eng   *engine.Engine
	mnt   *maintain.Maintainer
	quota *quotaGate // nil = no per-collection quota

	requests  counter // requests routed to this collection
	quotaShed counter // requests shed by its quota

	// hist is the collection's per-stage request-duration histograms:
	// total always records; traced requests add the stage breakdown.
	hist *obs.StageHists
}

func (tn *tenant) close() {
	tn.mnt.Close()
	tn.eng.Close()
}

// Server serves a registry of named collections (or, in static mode, a
// single handle as the default collection). Create with New or NewMulti,
// expose Handler() through net/http, Close when draining.
type Server struct {
	reg *collection.Registry // nil = static single-collection mode (no CRUD)
	cfg Config
	mux *http.ServeMux

	searchGate *gate
	mutGate    *gate
	adminGate  *gate

	tmu     sync.RWMutex
	tenants map[string]*tenant

	// sampler decides which search-class requests get a stage trace;
	// slow holds the slow-query log configuration.
	sampler *obs.Sampler
	slow    *obs.SlowLog

	m metrics
}

// New builds a static server over one open handle, served as the
// "default" collection (collection CRUD answers 503). reopen is the
// snapshot opener /admin/reload swaps in — normally a closure over
// shard.OpenDurable on the same root; nil disables reloads (503). Tags
// attach to an in-memory store (filtered search works; tags are not
// durable — use NewMulti over a collection.Registry for durable tags).
func New(h *shard.Handle, reopen func() (*shard.Durable, error), cfg Config) *Server {
	s := newServer(nil, cfg)
	s.addTenant(&collection.Collection{
		Name: wire.DefaultCollection,
		Spec: wire.CollectionSpec{
			Divergence: h.Divergence().Name(),
			Dim:        h.Dim(),
			M:          h.M(),
			Shards:     h.Shards(),
		},
		Handle: h,
		Tags:   collection.NewMemTags(),
		Reopen: reopen,
	})
	return s
}

// NewMulti builds the multi-tenant server over an open registry: every
// collection gets its own serving pipeline, and the CRUD routes create
// and drop collections live. The registry (and its handles) belongs to
// the caller and is not closed by Server.Close.
func NewMulti(reg *collection.Registry, cfg Config) *Server {
	s := newServer(reg, cfg)
	for _, c := range reg.List() {
		s.addTenant(c)
	}
	return s
}

func newServer(reg *collection.Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		reg:        reg,
		cfg:        cfg,
		tenants:    make(map[string]*tenant),
		searchGate: newGate(cfg.MaxInFlight),
		mutGate:    newGate(cfg.MaxMutations),
		adminGate:  newGate(1),
		sampler:    obs.NewSampler(cfg.TraceSample),
	}
	slowLogger := cfg.SlowQueryLog
	if slowLogger == nil && cfg.SlowQueryThreshold > 0 {
		slowLogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	s.slow = &obs.SlowLog{Threshold: cfg.SlowQueryThreshold, Logger: slowLogger}
	s.m.requests = newRouteCounters(
		"search", "approx", "range", "insert", "delete", "frame",
		"reload", "checkpoint", "compact",
		"collections", "create", "drop")
	s.mux = http.NewServeMux()

	// v1: the pre-collections surface, a thin delegation to "default".
	s.mux.HandleFunc("POST /v1/search", s.route("search", s.searchGate, s.forDefault("search", s.handleSearch)))
	s.mux.HandleFunc("POST /v1/approx", s.route("approx", s.searchGate, s.forDefault("approx", s.handleApprox)))
	s.mux.HandleFunc("POST /v1/range", s.route("range", s.searchGate, s.forDefault("range", s.handleRange)))
	s.mux.HandleFunc("POST /v1/insert", s.route("insert", s.mutGate, s.forDefault("insert", s.handleInsert)))
	s.mux.HandleFunc("POST /v1/delete", s.route("delete", s.mutGate, s.forDefault("delete", s.handleDelete)))
	s.mux.HandleFunc("POST /v1/frame", s.handleFrame)

	// v2: named-collection serving + CRUD.
	s.mux.HandleFunc("POST /v2/collections/{name}/search", s.route("search", s.searchGate, s.forNamed("search", s.handleSearch)))
	s.mux.HandleFunc("POST /v2/collections/{name}/approx", s.route("approx", s.searchGate, s.forNamed("approx", s.handleApprox)))
	s.mux.HandleFunc("POST /v2/collections/{name}/range", s.route("range", s.searchGate, s.forNamed("range", s.handleRange)))
	s.mux.HandleFunc("POST /v2/collections/{name}/insert", s.route("insert", s.mutGate, s.forNamed("insert", s.handleInsert)))
	s.mux.HandleFunc("POST /v2/collections/{name}/delete", s.route("delete", s.mutGate, s.forNamed("delete", s.handleDelete)))
	s.mux.HandleFunc("GET /v2/collections", s.handleList)
	s.mux.HandleFunc("GET /v2/collections/{name}", s.handleInfo)
	s.mux.HandleFunc("PUT /v2/collections/{name}", s.route("create", s.adminGate, s.handleCreate))
	s.mux.HandleFunc("DELETE /v2/collections/{name}", s.route("drop", s.adminGate, s.handleDrop))

	s.mux.HandleFunc("POST /admin/reload", s.route("reload", s.adminGate, s.handleReload))
	s.mux.HandleFunc("POST /admin/checkpoint", s.route("checkpoint", s.adminGate, s.handleCheckpoint))
	s.mux.HandleFunc("POST /admin/compact", s.route("compact", s.adminGate, s.handleCompact))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// addTenant builds and registers a collection's serving pipeline.
func (s *Server) addTenant(c *collection.Collection) *tenant {
	if s.cfg.ColdTierEnabled && !c.Handle.ColdTierEnabled() {
		// Server-wide cold serving; a spec-level Cold section already
		// enabled the handle with its own settings. A build failure leaves
		// this collection serving hot (still exact) — the metrics page's
		// coldtier_enabled gauge shows which collections actually tiered.
		if err := c.Handle.EnableColdTier(s.cfg.ColdTier); err != nil {
			s.m.coldErrs.Add(1)
		}
	}
	tn := &tenant{col: c, eng: engine.New(c.Handle, s.cfg.Engine), hist: obs.NewStageHists()}
	tn.mnt = maintain.New(c.Handle, maintain.Config{
		Interval:     s.cfg.MaintainInterval,
		MinLiveRatio: s.cfg.MaintainMinLive,
		MaxTailRatio: s.cfg.MaintainMaxTail,
		MinPoints:    s.cfg.MaintainMinPoints,
	})
	if q := c.Spec.Quota; q != nil {
		tn.quota = newQuotaGate(*q, s.cfg.MaxInFlight)
	}
	s.tmu.Lock()
	s.tenants[c.Name] = tn
	s.tmu.Unlock()
	return tn
}

// tenant resolves a collection name to its serving pipeline.
func (s *Server) tenant(name string) (*tenant, error) {
	s.tmu.RLock()
	tn := s.tenants[name]
	s.tmu.RUnlock()
	if tn == nil {
		return nil, fmt.Errorf("%w: %q", wire.ErrNoSuchCollection, name)
	}
	return tn, nil
}

// sortedTenants snapshots the tenant set in name order (metrics, sweeps).
func (s *Server) sortedTenants() []*tenant {
	s.tmu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, tn := range s.tenants {
		out = append(out, tn)
	}
	s.tmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].col.Name < out[j].col.Name })
	return out
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the default collection's query engine (stats, tests);
// nil when no default collection exists.
func (s *Server) Engine() *engine.Engine {
	tn, err := s.tenant(wire.DefaultCollection)
	if err != nil {
		return nil
	}
	return tn.eng
}

// Close drains every collection's serving pipeline: engines stop
// accepting work and finish in-flight queries. Handles (and their WALs)
// belong to the caller and are not closed. In-flight HTTP requests
// should be drained first (http.Server.Shutdown); later submissions fail
// with 503.
func (s *Server) Close() error {
	for _, tn := range s.sortedTenants() {
		tn.close()
	}
	return nil
}

// route wraps a handler with the shared per-request plumbing: request
// counting, admission through the global class gate, and the deadline
// context.
func (s *Server) route(name string, g *gate, h func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.inc(name)
		if !g.tryAcquire() {
			s.shed(w)
			return
		}
		defer g.release()
		ctx, cancel := s.deadline(r)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// forDefault resolves the default collection for the v1 surface.
func (s *Server) forDefault(op string, h func(tn *tenant, w http.ResponseWriter, r *http.Request)) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		s.dispatch(wire.DefaultCollection, op, h, w, r)
	}
}

// forNamed resolves the {name} path collection for the v2 surface.
func (s *Server) forNamed(op string, h func(tn *tenant, w http.ResponseWriter, r *http.Request)) func(w http.ResponseWriter, r *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		s.dispatch(r.PathValue("name"), op, h, w, r)
	}
}

// searchClass reports whether op is a search-class operation — the ones
// that get stage traces and duration histograms (mutations and admin
// have no stage pipeline to attribute time to).
func searchClass(op string) bool {
	return op == "search" || op == "approx" || op == "range"
}

// frameOp maps a binary op to the same op vocabulary the JSON routes
// use for traces and the slow-query log.
func frameOp(op wire.Op) string {
	switch op {
	case wire.OpSearch:
		return "search"
	case wire.OpApprox:
		return "approx"
	case wire.OpRange:
		return "range"
	case wire.OpInsert:
		return "insert"
	case wire.OpDelete:
		return "delete"
	}
	return "frame"
}

// startTrace decides one search-class request's trace: a client-forced
// id (hex X-Trace-Id header or the binary frame's trace field) always
// traces under that id; otherwise the sampler decides, and an enabled
// slow-query log traces everything — the stage breakdown must already
// exist by the time a query turns out to be slow.
func (s *Server) startTrace(forced uint64) *obs.Trace {
	if forced != 0 {
		return obs.NewTrace(forced)
	}
	if s.sampler.Sample() || s.slow.Enabled() {
		return obs.NewTrace(obs.NextID())
	}
	return nil
}

// headerTraceID parses a forced X-Trace-Id request header (hex, as the
// server echoes it); absent or malformed means not forced.
func headerTraceID(r *http.Request) uint64 {
	h := r.Header.Get("X-Trace-Id")
	if h == "" {
		return 0
	}
	id, err := strconv.ParseUint(h, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// finishTrace closes out one search-class request: the total span and
// per-stage histograms record, the slow-query log gets its chance, and
// the handler's trace reference drops (workers still recording into an
// abandoned request's trace hold their own references). tr may be nil
// (untraced request — only the total histogram records). shed marks a
// request the quota turned away before it entered the pipeline: it
// observes nothing — admission-only wait must not pollute the served
// latency histograms or the slow-query log.
func (s *Server) finishTrace(tn *tenant, op string, tr *obs.Trace, start time.Time, shed bool) {
	if shed {
		tr.Release()
		return
	}
	total := time.Since(start)
	tr.AddSpan(obs.StageTotal, total)
	tn.hist.ObserveTrace(tr, total)
	if tr == nil {
		return
	}
	s.slow.MaybeLog(tn.col.Name, op, tr, total)
	tr.Release()
}

// dispatch routes one gate-admitted JSON request to its collection's
// pipeline through admit; a traced request echoes its id in X-Trace-Id.
func (s *Server) dispatch(name, op string, h func(tn *tenant, w http.ResponseWriter, r *http.Request), w http.ResponseWriter, r *http.Request) {
	tn, err := s.tenant(name)
	if err != nil {
		s.writeError(w, err)
		return
	}
	fail := func(err error) { s.writeError(w, err) }
	s.admit(tn, op, headerTraceID(r), r, fail, func(r *http.Request) {
		if tr := obs.From(r.Context()); tr != nil {
			w.Header().Set("X-Trace-Id", fmt.Sprintf("%016x", tr.ID()))
		}
		h(tn, w, r)
	})
}

// admit is the one admission path of every collection-routed request,
// JSON or binary. It counts the request against its collection, passes
// it through the collection's quota under the request deadline, and
// calls serve; a quota failure goes to fail, which answers in the
// request's own protocol. A search-class request may pick up a stage
// trace here (forced is a client-sent trace id) — created before the
// quota wait so StageAdmission covers it, carried to serve in the
// request context, and released (after histograms and the slow-query
// log) when serve returns.
func (s *Server) admit(tn *tenant, op string, forced uint64, r *http.Request, fail func(error), serve func(r *http.Request)) {
	tn.requests.Add(1)
	var tr *obs.Trace
	var start time.Time
	shed := false
	if searchClass(op) {
		start = time.Now()
		tr = s.startTrace(forced)
		defer func() { s.finishTrace(tn, op, tr, start, shed) }()
	}
	if tn.quota != nil {
		if err := tn.quota.acquire(r.Context()); err != nil {
			shed = true
			if errors.Is(err, wire.ErrQuota) {
				tn.quotaShed.Add(1)
			}
			fail(err)
			return
		}
		defer tn.quota.release()
	}
	if tr != nil {
		tr.AddSpan(obs.StageAdmission, time.Since(start))
		r = r.WithContext(obs.NewContext(r.Context(), tr))
	}
	serve(r)
}

// deadline derives the per-request context: X-Timeout-Ms overrides the
// default, capped at MaxTimeout.
func (s *Server) deadline(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if h := r.Header.Get("X-Timeout-Ms"); h != "" {
		if ms, err := strconv.Atoi(h); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) retryAfterSecs() string {
	secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// shed answers a global-gate load-shed: 429 with a whole-seconds
// Retry-After hint, the contract well-behaved clients key on.
func (s *Server) shed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", s.retryAfterSecs())
	writeJSON(w, http.StatusTooManyRequests, wire.ErrorResponse{
		Error: "overloaded: in-flight limit reached, retry later",
		Code:  wire.CodeOverloaded.String(),
	})
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

// classify maps an error to its HTTP status and wire error code — the one
// vocabulary both protocols and the client reconstruct sentinels from.
func (s *Server) classify(err error) (int, wire.ErrCode) {
	switch {
	case errors.Is(err, wire.ErrNoSuchCollection):
		return http.StatusNotFound, wire.CodeNoSuchCollection
	case errors.Is(err, wire.ErrCollectionExists):
		return http.StatusConflict, wire.CodeCollectionExists
	case errors.Is(err, wire.ErrBadFilter):
		return http.StatusBadRequest, wire.CodeBadFilter
	case errors.Is(err, wire.ErrQuota):
		return http.StatusTooManyRequests, wire.CodeQuota
	case errors.Is(err, wire.ErrBadCollection):
		return http.StatusBadRequest, wire.CodeBadCollection
	case errors.Is(err, core.ErrDim), errors.Is(err, core.ErrK),
		errors.Is(err, core.ErrRadius), errors.Is(err, core.ErrShape),
		errors.Is(err, bregman.ErrDomain), errors.Is(err, approx.ErrGuarantee),
		errors.Is(err, wire.ErrFrame):
		return http.StatusBadRequest, wire.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.deadlines.Add(1)
		return http.StatusGatewayTimeout, wire.CodeDeadline
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable, wire.CodeUnavailable
	default:
		return http.StatusInternalServerError, wire.CodeGeneric
	}
}

// writeError answers a failed JSON request with the structured error
// body; 429s carry the Retry-After backoff hint.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := s.classify(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSecs())
	}
	writeJSON(w, status, wire.ErrorResponse{Error: err.Error(), Code: code.String()})
}

// badRequest answers a handler-level validation failure.
func badRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: msg, Code: wire.CodeBadRequest.String()})
}

// ---------------------------------------------------------------------------
// JSON handlers.
// ---------------------------------------------------------------------------

// maxJSONBody bounds a JSON request body (same trust boundary as
// wire.MaxFrame).
const maxJSONBody = wire.MaxFrame

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxJSONBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		badRequest(w, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSearch(tn *tenant, w http.ResponseWriter, r *http.Request) {
	var req wire.SearchRequest
	if !readJSON(w, r, &req) {
		return
	}
	queries, ok := normalizeQueries(w, req)
	if !ok {
		return
	}
	proto := core.Query{K: req.K}
	if req.Filter != nil {
		// The predicate rides into the leaf scan (pre-filtered pruning
		// radii, never a post-filter).
		var err error
		if proto.Keep, err = tn.col.Predicate(req.Filter); err != nil {
			s.writeError(w, err)
			return
		}
	}
	results, err := s.queryMany(tn, r, queries, proto)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.SearchResponse{Results: results})
}

// normalizeQueries folds the single-vs-batch JSON shape into one query
// list of bounded length.
func normalizeQueries(w http.ResponseWriter, req wire.SearchRequest) ([][]float64, bool) {
	if (req.Q == nil) == (req.Queries == nil) {
		badRequest(w, `exactly one of "q" and "queries" must be set`)
		return nil, false
	}
	queries := req.Queries
	if req.Q != nil {
		queries = [][]float64{req.Q}
	}
	if len(queries) == 0 || len(queries) > wire.MaxBatch {
		badRequest(w, fmt.Sprintf("need between 1 and %d queries, got %d", wire.MaxBatch, len(queries)))
		return nil, false
	}
	return queries, true
}

// finite rejects NaN and ±Inf coordinates at the trust boundary: no
// divergence domain admits them, and a NaN would poison every distance it
// meets.
func finite(vecs ...[]float64) error {
	for _, q := range vecs {
		for _, v := range q {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite coordinate", wire.ErrFrame)
			}
		}
	}
	return nil
}

// queryMany answers every query in the shape of proto (its Vec is filled
// in per query). It is the one place a search request of either protocol
// reaches its collection's engine. Everything is validated before
// anything is scheduled, so a bad member fails the whole request without
// wasting work on the rest.
func (s *Server) queryMany(tn *tenant, r *http.Request, queries [][]float64, proto core.Query) ([]wire.Result, error) {
	if err := finite(queries...); err != nil {
		return nil, err
	}
	if proto.Range && math.IsInf(proto.Radius, 1) {
		return nil, fmt.Errorf("%w: radius must be finite", wire.ErrFrame)
	}
	div, dim := tn.col.Handle.Divergence(), tn.col.Handle.Dim()
	for _, q := range queries {
		proto.Vec = q
		if err := proto.Validate(div, dim); err != nil {
			return nil, err
		}
	}
	proto.Trace = obs.From(r.Context())
	proto.Trace.SetQuery(proto.K, len(queries))
	futs := make([]*engine.Future, len(queries))
	for i, q := range queries {
		proto.Vec = q
		futs[i] = tn.eng.SubmitQuery(proto)
	}
	out := make([]wire.Result, len(futs))
	for i, f := range futs {
		res, err := f.WaitContext(r.Context())
		if err != nil {
			return nil, err
		}
		out[i] = toWire(res)
	}
	return out, nil
}

func toWire(res core.Result) wire.Result {
	items := make([]wire.Item, len(res.Items))
	for i, it := range res.Items {
		items[i] = wire.Item{ID: it.ID, Distance: it.Score}
	}
	return wire.Result{Items: items}
}

func (s *Server) handleApprox(tn *tenant, w http.ResponseWriter, r *http.Request) {
	var req wire.SearchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Filter != nil {
		s.writeError(w, fmt.Errorf("%w: approx search does not support filters", wire.ErrBadFilter))
		return
	}
	queries, ok := normalizeQueries(w, req)
	if !ok {
		return
	}
	results, err := s.queryMany(tn, r, queries, core.Query{K: req.K, Approx: true, P: req.P})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.SearchResponse{Results: results})
}

func (s *Server) handleRange(tn *tenant, w http.ResponseWriter, r *http.Request) {
	var req wire.SearchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Filter != nil {
		s.writeError(w, fmt.Errorf("%w: range search does not support filters", wire.ErrBadFilter))
		return
	}
	queries, ok := normalizeQueries(w, req)
	if !ok {
		return
	}
	results, err := s.queryMany(tn, r, queries, core.Query{Range: true, Radius: req.R})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.SearchResponse{Results: results})
}

func (s *Server) handleInsert(tn *tenant, w http.ResponseWriter, r *http.Request) {
	var req wire.InsertRequest
	if !readJSON(w, r, &req) {
		return
	}
	for _, tag := range req.Tags {
		if tag == "" || len(tag) > wire.MaxName {
			badRequest(w, fmt.Sprintf("bad tag %q", tag))
			return
		}
	}
	id, err := s.insertOne(tn, req.P)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Tags) > 0 {
		if err := tn.col.Tags.Add(id, req.Tags); err != nil {
			// The point is in; its tags are not. Surface the failure — the
			// caller can retry the tagging by reinserting.
			s.writeError(w, fmt.Errorf("point %d inserted but tagging failed: %w", id, err))
			return
		}
	}
	writeJSON(w, http.StatusOK, wire.InsertResponse{ID: id})
}

func (s *Server) insertOne(tn *tenant, p []float64) (int, error) {
	// The durable index checks dimensionality and domain before it logs.
	if err := finite(p); err != nil {
		return 0, err
	}
	return tn.eng.Insert(p)
}

func (s *Server) handleDelete(tn *tenant, w http.ResponseWriter, r *http.Request) {
	var req wire.DeleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	deleted, err := tn.eng.Delete(req.ID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.DeleteResponse{Deleted: deleted})
}

// ---------------------------------------------------------------------------
// Binary protocol: one endpoint, op-dispatched, collection-routed by the
// frame's name field, same gates and quotas as JSON.
// ---------------------------------------------------------------------------

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	s.m.requests.inc("frame")
	req, err := wire.ReadRequest(io.LimitReader(r.Body, wire.MaxFrame+4))
	if err != nil {
		writeErrorFrame(w, 0, http.StatusBadRequest, wire.CodeBadRequest, err)
		return
	}
	tn, err := s.tenant(req.Collection)
	if err != nil {
		s.writeFrameError(w, req.Op, err)
		return
	}
	g := s.searchGate
	if req.Op == wire.OpInsert || req.Op == wire.OpDelete {
		g = s.mutGate
	}
	if !g.tryAcquire() {
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeErrorFrame(w, req.Op, http.StatusTooManyRequests, wire.CodeOverloaded,
			errors.New("overloaded: in-flight limit reached, retry later"))
		return
	}
	defer g.release()
	ctx, cancel := s.deadline(r)
	defer cancel()
	fail := func(err error) { s.writeFrameError(w, req.Op, err) }
	s.admit(tn, frameOp(req.Op), req.TraceID, r.WithContext(ctx), fail, func(r *http.Request) {
		s.serveFrame(tn, w, r, req)
	})
}

// serveFrame runs one admitted binary request and writes its response
// frame.
func (s *Server) serveFrame(tn *tenant, w http.ResponseWriter, r *http.Request, req wire.Request) {
	// Echo only the id the client sent: a sampler- or slow-log-initiated
	// trace stays server-internal, so trace-unaware v2 clients never see
	// the v3 flags bit on their responses.
	resp := wire.Response{Op: req.Op, TraceID: req.TraceID}
	var err error
	switch req.Op {
	case wire.OpSearch:
		resp.Results, err = s.queryMany(tn, r, req.Queries, core.Query{K: req.K})
	case wire.OpApprox:
		resp.Results, err = s.queryMany(tn, r, req.Queries, core.Query{K: req.K, Approx: true, P: req.Param})
	case wire.OpRange:
		resp.Results, err = s.queryMany(tn, r, req.Queries, core.Query{Range: true, Radius: req.Param})
	case wire.OpInsert:
		var id int
		id, err = s.insertOne(tn, req.Queries[0])
		resp.Value = int64(id)
	case wire.OpDelete:
		var deleted bool
		deleted, err = tn.eng.Delete(req.ID)
		if deleted {
			resp.Value = 1
		}
	}
	if err != nil {
		s.writeFrameError(w, req.Op, err)
		return
	}
	frame, err := wire.AppendResponse(nil, resp)
	if err != nil {
		writeErrorFrame(w, req.Op, http.StatusInternalServerError, wire.CodeGeneric, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

// writeFrameError answers a failed binary request the way writeError
// answers a JSON one: classified status and code, and the Retry-After
// hint on a 429.
func (s *Server) writeFrameError(w http.ResponseWriter, op wire.Op, err error) {
	status, code := s.classify(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", s.retryAfterSecs())
	}
	writeErrorFrame(w, op, status, code, err)
}

// writeErrorFrame answers a binary request with an error frame carrying
// the machine-readable code; the HTTP status is set too so the
// shed/deadline contracts hold across both protocols.
func writeErrorFrame(w http.ResponseWriter, op wire.Op, status int, code wire.ErrCode, err error) {
	frame, ferr := wire.AppendResponse(nil, wire.Response{Op: op, Err: err.Error(), Code: code})
	if ferr != nil {
		writeJSON(w, http.StatusInternalServerError, wire.ErrorResponse{Error: ferr.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(status)
	w.Write(frame)
}

// ---------------------------------------------------------------------------
// Collection CRUD.
// ---------------------------------------------------------------------------

// requireRegistry guards the CRUD surface: a static server has no
// registry to create into.
func (s *Server) requireRegistry(w http.ResponseWriter) bool {
	if s.reg == nil {
		writeJSON(w, http.StatusServiceUnavailable, wire.ErrorResponse{
			Error: "collection management not configured (static single-index server)",
			Code:  wire.CodeUnavailable.String(),
		})
		return false
	}
	return true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.m.requests.inc("collections")
	tns := s.sortedTenants()
	resp := wire.CollectionsResponse{Collections: make([]wire.CollectionInfo, len(tns))}
	for i, tn := range tns {
		resp.Collections[i] = tn.col.Info()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	s.m.requests.inc("collections")
	tn, err := s.tenant(r.PathValue("name"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tn.col.Info())
}

// CreateCollection creates a named collection in the registry and
// starts serving it. It is the in-process form of PUT
// /v2/collections/{name}; a static server (no registry) refuses.
func (s *Server) CreateCollection(name string, spec wire.CollectionSpec) (wire.CollectionInfo, error) {
	if s.reg == nil {
		return wire.CollectionInfo{}, errors.New("server: collection management not configured (static single-index server)")
	}
	c, err := s.reg.Create(name, spec)
	if err != nil {
		return wire.CollectionInfo{}, err
	}
	s.addTenant(c)
	return c.Info(), nil
}

// DropCollection stops serving a collection (new requests 404
// immediately), drains its pipeline, and removes its files. In-flight
// queries finish against the in-memory generation.
func (s *Server) DropCollection(name string) error {
	if s.reg == nil {
		return errors.New("server: collection management not configured (static single-index server)")
	}
	s.tmu.Lock()
	tn := s.tenants[name]
	delete(s.tenants, name)
	s.tmu.Unlock()
	if tn == nil {
		return fmt.Errorf("%w: %q", wire.ErrNoSuchCollection, name)
	}
	tn.close()
	return s.reg.Drop(name)
}

// Collections snapshots every served collection's info, name-sorted.
func (s *Server) Collections() []wire.CollectionInfo {
	tns := s.sortedTenants()
	out := make([]wire.CollectionInfo, len(tns))
	for i, tn := range tns {
		out[i] = tn.col.Info()
	}
	return out
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !s.requireRegistry(w) {
		return
	}
	var spec wire.CollectionSpec
	if !readJSON(w, r, &spec) {
		return
	}
	info, err := s.CreateCollection(r.PathValue("name"), spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if !s.requireRegistry(w) {
		return
	}
	if err := s.DropCollection(r.PathValue("name")); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.DropResponse{Dropped: true})
}

// ---------------------------------------------------------------------------
// Admin, health, metrics.
// ---------------------------------------------------------------------------

// Reload checkpoints and hot-swaps the default collection's snapshot
// (the unscoped in-process reload); both the HTTP handler and embedders
// route through here so the reload counter stays truthful.
func (s *Server) Reload() error {
	tn, err := s.tenant(wire.DefaultCollection)
	if err != nil {
		return err
	}
	return s.reloadTenant(tn)
}

func (s *Server) reloadTenant(tn *tenant) error {
	if tn.col.Reopen == nil {
		return errors.New("server: reload not configured")
	}
	if err := tn.col.Handle.Reload(tn.col.Reopen); err != nil {
		return err
	}
	s.m.reloads.Add(1)
	return nil
}

// scopedTenant resolves the collection an admin request addresses:
// ?collection=name explicitly, or — when the request names none and
// exactly one collection is open — that collection, preserving the
// pre-collections single-index contract (legacy response shapes). A
// nameless request against several collections returns (nil, nil): a
// sweep.
func (s *Server) scopedTenant(r *http.Request) (*tenant, error) {
	if name := r.URL.Query().Get("collection"); name != "" {
		return s.tenant(name)
	}
	if tns := s.sortedTenants(); len(tns) == 1 {
		return tns[0], nil
	}
	return nil, nil
}

// adminOp runs one collection-scoped admin operation, or sweeps every
// collection when the request names none and several are open. A sweep
// reports each collection's outcome independently: one failure never
// strands the rest.
func (s *Server) adminOp(w http.ResponseWriter, r *http.Request,
	op func(tn *tenant) (wire.AdminSweepEntry, error)) {
	tn, err := s.scopedTenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if tn != nil {
		entry, err := op(tn)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, wire.AdminResponse{Version: entry.Version, WALBytes: entry.WALBytes})
		return
	}
	tns := s.sortedTenants()
	resp := wire.AdminSweepResponse{Collections: make([]wire.AdminSweepEntry, 0, len(tns))}
	for _, tn := range tns {
		entry, err := op(tn)
		entry.Collection = tn.col.Name
		if err != nil {
			_, code := s.classify(err)
			entry.Error, entry.Code = err.Error(), code.String()
		}
		resp.Collections = append(resp.Collections, entry)
	}
	writeJSON(w, http.StatusOK, resp)
}

// adminEntry snapshots a collection's post-operation admin state.
func adminEntry(tn *tenant) wire.AdminSweepEntry {
	return wire.AdminSweepEntry{
		Collection: tn.col.Name,
		Version:    tn.col.Handle.Version(),
		WALBytes:   tn.col.Handle.WALSize(),
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.adminOp(w, r, func(tn *tenant) (wire.AdminSweepEntry, error) {
		if err := s.reloadTenant(tn); err != nil {
			return adminEntry(tn), err
		}
		return adminEntry(tn), nil
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.adminOp(w, r, func(tn *tenant) (wire.AdminSweepEntry, error) {
		if err := tn.col.Handle.Checkpoint(); err != nil {
			return adminEntry(tn), err
		}
		return adminEntry(tn), nil
	})
}

// handleCompact runs shard maintenance on demand. Scoped
// (?collection=name) it behaves as the single-index endpoint always did:
// ?shard=N force-compacts that shard, otherwise the maintainer sweeps
// the collection's shards past their thresholds. Unscoped, it sweeps
// every collection.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	shardArg := r.URL.Query().Get("shard")
	tn, err := s.scopedTenant(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if tn != nil {
		var done []shard.CompactStats
		if shardArg != "" {
			sh, err := strconv.Atoi(shardArg)
			nshards := tn.col.Handle.Shards()
			if err != nil || sh < 0 || sh >= nshards {
				badRequest(w, fmt.Sprintf("bad shard %q (have %d shards)", shardArg, nshards))
				return
			}
			st, err := tn.col.Handle.CompactShard(sh)
			if err != nil {
				s.writeError(w, err)
				return
			}
			done = []shard.CompactStats{st}
		} else {
			var err error
			done, err = tn.mnt.RunOnce()
			if err != nil {
				s.writeError(w, err)
				return
			}
		}
		resp := wire.CompactResponse{
			Compacted: toCompactions(done),
			Version:   tn.col.Handle.Version(),
			WALBytes:  tn.col.Handle.WALSize(),
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if shardArg != "" {
		badRequest(w, "?shard requires ?collection when several collections are open")
		return
	}
	s.adminOp(w, r, func(tn *tenant) (wire.AdminSweepEntry, error) {
		done, err := tn.mnt.RunOnce()
		entry := adminEntry(tn)
		entry.Compacted = toCompactions(done)
		return entry, err
	})
}

func toCompactions(done []shard.CompactStats) []wire.ShardCompaction {
	out := make([]wire.ShardCompaction, len(done))
	for i, st := range done {
		out[i] = wire.ShardCompaction{
			Shard: st.Shard, Before: st.Before, After: st.After,
			Dropped: st.Dropped, CatchUp: st.CatchUp,
		}
	}
	return out
}

// handleHealthz reports process health. The index fields describe the
// default collection when one exists (the pre-collections contract);
// Collections counts every open collection, and any degraded collection
// degrades the whole report.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	tns := s.sortedTenants()
	h := wire.Health{Status: "ok", Collections: len(tns)}
	status := http.StatusOK
	for _, tn := range tns {
		if err := tn.col.Handle.Err(); err != nil {
			h.Status = "degraded: " + tn.col.Name + ": " + err.Error()
			status = http.StatusServiceUnavailable
		}
	}
	if tn, err := s.tenant(wire.DefaultCollection); err == nil {
		hd := tn.col.Handle
		h.N, h.Live, h.Dim, h.M = hd.N(), hd.Live(), hd.Dim(), hd.M()
		h.Shards, h.Version, h.WALBytes = hd.Shards(), hd.Version(), hd.WALSize()
	}
	writeJSON(w, status, h)
}
