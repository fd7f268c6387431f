package brepartition

import (
	"context"
	"net/http"
	"time"

	"brepartition/internal/client"
	"brepartition/internal/coldtier"
	"brepartition/internal/collection"
	"brepartition/internal/server"
	"brepartition/internal/wire"
)

// ---------------------------------------------------------------------------
// Network serving layer: breserved server + client (see cmd/breserved).
// ---------------------------------------------------------------------------

// ServerOptions tunes the serving layer: admission control
// (MaxInFlight, MaxMutations, Timeout, RetryAfter), the per-collection
// query engines, background maintenance, the cold tier, and tracing.
// Every search request goes to its collection's engine as soon as it is
// admitted; there is no batching window to tune. Prefer the ServeOption helpers; the
// struct remains for bulk configuration via WithServerConfig.
type ServerOptions = server.Config

// ServeOption configures OpenCollections and NewServer. The option set
// consolidates what used to be two positional option structs
// (DurableOptions and ServerOptions): zero options ask for defaults,
// and the With* helpers override exactly the knob they name.
type ServeOption func(*serveConfig)

type serveConfig struct {
	durable DurableOptions
	server  ServerOptions
}

// WithDurableConfig bulk-applies a DurableOptions template to every
// collection's storage layer (checkpoint policy, sync policy; geometry
// fields are overridden per collection by its spec).
func WithDurableConfig(o DurableOptions) ServeOption {
	return func(c *serveConfig) { c.durable = o }
}

// WithServerConfig bulk-applies a ServerOptions struct (the escape
// hatch for options without a dedicated helper).
func WithServerConfig(o ServerOptions) ServeOption {
	return func(c *serveConfig) { c.server = o }
}

// WithAdmission bounds concurrently admitted requests per class; excess
// search or mutation load is shed with 429 + Retry-After.
func WithAdmission(maxInFlight, maxMutations int) ServeOption {
	return func(c *serveConfig) { c.server.MaxInFlight, c.server.MaxMutations = maxInFlight, maxMutations }
}

// WithRequestTimeout sets the default per-request deadline and the cap
// on client-requested deadlines (X-Timeout-Ms).
func WithRequestTimeout(def, max time.Duration) ServeOption {
	return func(c *serveConfig) { c.server.Timeout, c.server.MaxTimeout = def, max }
}

// WithEngineConfig tunes each collection's query engine: how many
// queries run at once.
func WithEngineConfig(o EngineOptions) ServeOption {
	return func(c *serveConfig) { c.server.Engine = o }
}

// WithMaintenance enables each collection's background shard
// maintainer, sweeping every interval and compacting shards past the
// default decay thresholds.
func WithMaintenance(interval time.Duration) ServeOption {
	return func(c *serveConfig) { c.server.MaintainInterval = interval }
}

// ColdTierOptions tunes cold-tier serving: VA grid resolution (Bits),
// per-shard block-cache budget (CacheBytes), per-query cache admission,
// and async prefetch depth. The zero value asks for defaults (6 bits,
// 16 MiB cache per shard, prefetch 4).
type ColdTierOptions = coldtier.Config

// WithColdTier routes every collection's exact searches through a cold
// tier: a resident compressed-domain VA pass prunes candidates in
// memory, and only the surviving points fault in from mmap-paged
// storage through an admission-controlled block cache. Answers are
// bit-identical to hot serving; memory for point data is bounded by the
// tier budget, so a collection larger than RAM stays servable.
// Collections whose spec carries its own Cold section keep their spec
// settings.
func WithColdTier(o ColdTierOptions) ServeOption {
	return func(c *serveConfig) { c.server.ColdTierEnabled, c.server.ColdTier = true, o }
}

// ColdSpec is the per-collection cold-tier opt-in carried by a
// CollectionSpec (see ColdTierOptions for the server-wide switch).
type ColdSpec = wire.ColdSpec

// ColdTierStats aggregates a served index's cold-tier counters: queries,
// compressed-domain pruning, page faults and cache hits, and the
// resident-memory footprint.
type ColdTierStats = coldtier.TierStats

// CollectionSpec declares a collection: its divergence (by registry
// name, e.g. "l2", "is", "gkl"), dimensionality, optional geometry
// overrides, and optional admission quota.
type CollectionSpec = wire.CollectionSpec

// CollectionInfo reports a served collection's spec and live state.
type CollectionInfo = wire.CollectionInfo

// Quota is a collection's admission quota: at most MaxInflight
// requests executing plus MaxQueue waiting; excess sheds with ErrQuota.
type Quota = wire.Quota

// Filter is a tag predicate for filtered search: match points carrying
// any (default) or all of the tags. Filtered answers are the exact
// top-k over matching points — the predicate prunes inside the index
// scan, it is not applied after the fact.
type Filter = wire.Filter

// FilterAny and FilterAll are the Filter.Mode values.
const (
	FilterAny = wire.FilterAny
	FilterAll = wire.FilterAll
)

// Typed serving errors, matched with errors.Is across the JSON and
// binary protocols (the client reconstructs them from the
// machine-readable error code).
var (
	// ErrNoSuchCollection reports an operation against a collection the
	// server does not host.
	ErrNoSuchCollection = wire.ErrNoSuchCollection
	// ErrCollectionExists reports a create colliding with a live name.
	ErrCollectionExists = wire.ErrCollectionExists
	// ErrBadFilter reports a malformed tag filter (or a filter on an
	// operation that does not support one).
	ErrBadFilter = wire.ErrBadFilter
	// ErrQuota reports a request shed by its collection's admission
	// quota (the process-wide gates shed with ErrOverloaded instead).
	ErrQuota = wire.ErrQuota
)

// Collections puts a registry of named BrePartition collections behind
// HTTP: one process serves many independent durable indexes — each with
// its own divergence, geometry, shard layout, metadata tags, admission
// quota, and background maintenance — under /v2/collections/{name}
// routes, with the /v1 routes bound to the collection named "default".
// Search answers are bit-identical to the in-process index.
//
//	cs, err := brepartition.OpenCollections("data/")
//	cs.Create("docs", brepartition.CollectionSpec{Divergence: "l2", Dim: 128})
//	http.ListenAndServe(":7600", cs.Handler())
type Collections struct {
	reg   *collection.Registry
	inner *server.Server
}

// OpenCollections opens (or initializes) the collection registry under
// root and builds the multi-tenant serving stack over it. A root
// holding a pre-collections single index is adopted as the collection
// "default", so upgrading a breserved deployment in place just works.
func OpenCollections(root string, opts ...ServeOption) (*Collections, error) {
	var cfg serveConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	reg, err := collection.Open(root, collection.Options{Durable: cfg.durable})
	if err != nil {
		return nil, err
	}
	return &Collections{reg: reg, inner: server.NewMulti(reg, cfg.server)}, nil
}

// Handler returns the HTTP handler tree (routes under /v1, /v2, /admin,
// /healthz, /metrics).
func (cs *Collections) Handler() http.Handler { return cs.inner.Handler() }

// Create declares a new collection and starts serving it immediately.
func (cs *Collections) Create(name string, spec CollectionSpec) (CollectionInfo, error) {
	return cs.inner.CreateCollection(name, spec)
}

// Drop stops serving a collection and removes its files.
func (cs *Collections) Drop(name string) error { return cs.inner.DropCollection(name) }

// List snapshots every served collection, name-sorted.
func (cs *Collections) List() []CollectionInfo { return cs.inner.Collections() }

// Close drains every collection's serving pipeline, then closes the
// registry (WALs and tag logs). Drain in-flight HTTP requests first
// (http.Server.Shutdown).
func (cs *Collections) Close() error {
	err := cs.inner.Close()
	if cerr := cs.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// Server is the single-index serving surface: a thin wrapper over a
// Collections registry pinned to the "default" collection. It exists
// for deployments that serve exactly one index — the original breserved
// shape — and keeps their construction and answers unchanged while the
// same process model now powers multi-tenant registries underneath.
//
// Serve it with net/http:
//
//	srv, err := brepartition.NewServer("durable/")
//	http.ListenAndServe(":7600", srv.Handler())
type Server struct {
	cols *Collections
}

// NewServer opens the index under root (a pre-collections durable root
// or a registry with a "default" collection) and builds the serving
// stack over it. Roots without an index fail: create one with
// BuildDurable, or use OpenCollections + Create for an empty start.
func NewServer(root string, opts ...ServeOption) (*Server, error) {
	cs, err := OpenCollections(root, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := cs.reg.Get(wire.DefaultCollection); err != nil {
		cs.Close()
		return nil, err
	}
	return &Server{cols: cs}, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.cols.Handler() }

// Collections exposes the registry surface beneath the single-index
// wrapper, so a deployment can grow tenants without reconstruction.
func (s *Server) Collections() *Collections { return s.cols }

// Stats snapshots the default collection's engine statistics.
func (s *Server) Stats() EngineStats { return s.cols.inner.Engine().Stats() }

// Divergence returns the divergence the default index was built with.
func (s *Server) Divergence() Divergence {
	c, err := s.cols.reg.Get(wire.DefaultCollection)
	if err != nil {
		return nil
	}
	return c.Handle.Divergence()
}

// Reload checkpoints and hot-swaps the default collection's snapshot in
// process (the same operation as POST /admin/reload; it counts in the
// reload metric too).
func (s *Server) Reload() error { return s.cols.inner.Reload() }

// Close drains the serving pipeline (in-flight engine queries
// complete), then closes the registry's WALs.
// Drain in-flight HTTP requests first (http.Server.Shutdown).
func (s *Server) Close() error { return s.cols.Close() }

// ClientOptions tunes a Client: per-request Timeout, the Binary
// protocol switch, and connection-pool sizing. Prefer the ClientOption
// helpers; the struct remains for bulk configuration.
type ClientOptions = client.Options

// ClientOption configures NewClient.
type ClientOption func(*ClientOptions)

// WithClientConfig bulk-applies a ClientOptions struct.
func WithClientConfig(o ClientOptions) ClientOption {
	return func(c *ClientOptions) { *c = o }
}

// WithTimeout sets the per-request deadline (forwarded to the server
// and enforced locally).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *ClientOptions) { c.Timeout = d }
}

// WithBinary switches the point-operation routes to the compact binary
// frame protocol.
func WithBinary() ClientOption {
	return func(c *ClientOptions) { c.Binary = true }
}

// WithHTTPClient overrides the transport entirely (tests, middleware).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *ClientOptions) { c.HTTPClient = hc }
}

// ErrOverloaded matches (errors.Is) a 429 load-shed response; errors.As
// an *OverloadedError recovers the server's Retry-After hint for honest
// backoff.
var ErrOverloaded = client.ErrOverloaded

// ErrDeadline matches a request that missed its deadline server-side
// (504).
var ErrDeadline = client.ErrDeadline

// OverloadedError carries the Retry-After hint of a shed request.
type OverloadedError = client.OverloadedError

// WithTraceID returns ctx carrying a nonzero trace id on every request
// issued under it: the server forces an end-to-end trace for those
// requests and echoes the id back, so one id correlates the call site
// with the server's stage histograms and slow-query log (see DESIGN.md,
// "Observability"). id 0 returns ctx unchanged.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return client.WithTraceID(ctx, id)
}

// RemoteResult is one remote query's answer items.
type RemoteResult = wire.Result

// Client talks to a breserved server with pooled keep-alive
// connections, speaking either the JSON routes or the compact binary
// protocol (WithBinary). It is safe for concurrent use. The methods on
// Client itself address the "default" collection; Collection(name)
// scopes the same operation set to a named collection, and the
// *Collection methods manage the registry. Overload (429), quota, and
// deadline (504) responses surface as typed errors (ErrOverloaded,
// ErrQuota, ErrDeadline), as do the collection errors
// (ErrNoSuchCollection, ErrCollectionExists, ErrBadFilter).
type Client struct {
	inner *client.Client
}

// NewClient creates a client for the breserved server at baseURL. Zero
// options mean the JSON protocol with a 5s timeout.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	var o ClientOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return &Client{inner: client.New(baseURL, o)}
}

func toNeighbors(items []wire.Item) []Neighbor {
	out := make([]Neighbor, len(items))
	for i, it := range items {
		out[i] = Neighbor{ID: it.ID, Distance: it.Distance}
	}
	return out
}

// RemoteCollection is a Client view scoped to one named collection: the
// same operation set, addressed at the collection's routes, plus
// filtered search and tagged inserts.
type RemoteCollection struct {
	inner *client.Collection
}

// Collection scopes the client to the named collection. The view shares
// the client's pooled transport; create as many as needed.
func (c *Client) Collection(name string) *RemoteCollection {
	return &RemoteCollection{inner: c.inner.Collection(name)}
}

// Search returns the exact k nearest neighbours of q from the
// collection; ids and distances match the in-process index bit for bit.
func (rc *RemoteCollection) Search(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	items, err := rc.inner.Search(ctx, q, k)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// SearchFiltered returns the exact k nearest neighbours of q among only
// the points matching the tag filter.
func (rc *RemoteCollection) SearchFiltered(ctx context.Context, q []float64, k int, f Filter) ([]Neighbor, error) {
	items, err := rc.inner.SearchFiltered(ctx, q, k, f)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// BatchSearch submits all queries in one request; results arrive in
// query order.
func (rc *RemoteCollection) BatchSearch(ctx context.Context, queries [][]float64, k int) ([][]Neighbor, error) {
	results, err := rc.inner.BatchSearch(ctx, queries, k)
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(results))
	for i, r := range results {
		out[i] = toNeighbors(r.Items)
	}
	return out, nil
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p ∈ (0,1].
func (rc *RemoteCollection) SearchApprox(ctx context.Context, q []float64, k int, p float64) ([]Neighbor, error) {
	items, err := rc.inner.SearchApprox(ctx, q, k, p)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// RangeSearch returns every point within distance r of q, ascending.
func (rc *RemoteCollection) RangeSearch(ctx context.Context, q []float64, r float64) ([]Neighbor, error) {
	items, err := rc.inner.RangeSearch(ctx, q, r)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// Insert durably adds a point to the collection and returns its global
// id.
func (rc *RemoteCollection) Insert(ctx context.Context, p []float64) (int, error) {
	return rc.inner.Insert(ctx, p)
}

// InsertTagged durably adds a point with metadata tags (the handles
// filtered search matches on) and returns its global id.
func (rc *RemoteCollection) InsertTagged(ctx context.Context, p []float64, tags []string) (int, error) {
	return rc.inner.InsertTagged(ctx, p, tags)
}

// Delete durably tombstones id in the collection, reporting whether it
// was live.
func (rc *RemoteCollection) Delete(ctx context.Context, id int) (bool, error) {
	return rc.inner.Delete(ctx, id)
}

// Collections lists every collection the server hosts, name-sorted.
func (c *Client) Collections(ctx context.Context) ([]CollectionInfo, error) {
	return c.inner.Collections(ctx)
}

// CreateCollection creates a named collection from spec server-side.
func (c *Client) CreateCollection(ctx context.Context, name string, spec CollectionSpec) (CollectionInfo, error) {
	return c.inner.CreateCollection(ctx, name, spec)
}

// DropCollection removes a named collection and its files server-side.
func (c *Client) DropCollection(ctx context.Context, name string) error {
	return c.inner.DropCollection(ctx, name)
}

// Search returns the exact k nearest neighbours of q from the server;
// ids and distances match the in-process Index.Search bit for bit.
func (c *Client) Search(ctx context.Context, q []float64, k int) ([]Neighbor, error) {
	items, err := c.inner.Search(ctx, q, k)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// BatchSearch submits all queries in one request; results arrive in
// query order.
func (c *Client) BatchSearch(ctx context.Context, queries [][]float64, k int) ([][]Neighbor, error) {
	results, err := c.inner.BatchSearch(ctx, queries, k)
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(results))
	for i, r := range results {
		out[i] = toNeighbors(r.Items)
	}
	return out, nil
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p ∈ (0,1].
func (c *Client) SearchApprox(ctx context.Context, q []float64, k int, p float64) ([]Neighbor, error) {
	items, err := c.inner.SearchApprox(ctx, q, k, p)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// RangeSearch returns every point within distance r of q, ascending.
func (c *Client) RangeSearch(ctx context.Context, q []float64, r float64) ([]Neighbor, error) {
	items, err := c.inner.RangeSearch(ctx, q, r)
	if err != nil {
		return nil, err
	}
	return toNeighbors(items), nil
}

// Insert durably adds a point server-side and returns its global id.
func (c *Client) Insert(ctx context.Context, p []float64) (int, error) {
	return c.inner.Insert(ctx, p)
}

// Delete durably tombstones id server-side, reporting whether it was
// live.
func (c *Client) Delete(ctx context.Context, id int) (bool, error) {
	return c.inner.Delete(ctx, id)
}

// Checkpoint asks the server to fold its WAL into the snapshot.
func (c *Client) Checkpoint(ctx context.Context) error {
	_, err := c.inner.Checkpoint(ctx)
	return err
}

// Reload asks the server to checkpoint and hot-swap its snapshot without
// dropping in-flight queries.
func (c *Client) Reload(ctx context.Context) error {
	_, err := c.inner.Reload(ctx)
	return err
}

// Health fetches the server's /healthz view.
func (c *Client) Health(ctx context.Context) (wire.Health, error) {
	return c.inner.Health(ctx)
}

// Close releases pooled idle connections.
func (c *Client) Close() { c.inner.Close() }
