// Package client is the Go client for a breserved server: a thin,
// connection-reusing wrapper over net/http that speaks both the JSON
// routes and the length-prefixed binary protocol of internal/wire.
//
// One Client is safe for concurrent use and keeps a pooled transport, so
// concurrent requests multiplex over warm keep-alive connections instead
// of paying a dial + handshake each. BatchSearch submits many queries in
// one request, sparing a round trip per query; the server submits every
// query to its engine as soon as the request is admitted, so a lone
// Search never waits for batch-mates.
//
// Collection() scopes a client to one named collection on a
// multi-tenant server; the unscoped methods address the "default"
// collection over the pre-collections /v1 routes (and v1 binary
// frames), so either side may be upgraded first.
//
// Failures surface as typed errors across both protocols: load-shed
// (429) as ErrOverloaded with its Retry-After hint, per-collection
// quota sheds as wire.ErrQuota, deadlines (504) as ErrDeadline, and the
// collection vocabulary (wire.ErrNoSuchCollection,
// wire.ErrCollectionExists, wire.ErrBadFilter) is reconstructed from
// the machine-readable code the server attaches to JSON bodies and
// binary frames alike.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"brepartition/internal/wire"
)

// ErrOverloaded reports a 429 load-shed; errors.Is matches it and
// errors.As an *OverloadedError carrying the server's Retry-After hint.
var ErrOverloaded = errors.New("client: server overloaded")

// ErrDeadline reports a request that missed its deadline server-side
// (504).
var ErrDeadline = errors.New("client: request deadline exceeded")

// OverloadedError carries the Retry-After hint of a 429.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("client: server overloaded (retry after %v)", e.RetryAfter)
}

func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Options tunes a client. The zero value asks for defaults.
type Options struct {
	// Timeout is the per-request deadline forwarded to the server via
	// X-Timeout-Ms and enforced locally through the request context
	// (0 = 5s). Per-call contexts with earlier deadlines win.
	Timeout time.Duration
	// Binary switches search/approx/range/insert/delete to the binary
	// /v1/frame protocol (the JSON routes are the default).
	Binary bool
	// MaxIdleConns caps pooled keep-alive connections to the server
	// (0 = 32).
	MaxIdleConns int
	// HTTPClient overrides the transport entirely (tests, middleware);
	// when set, MaxIdleConns is ignored.
	HTTPClient *http.Client
}

// Client talks to one breserved server.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	binary  bool
}

// New creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:7600"). opts may be the zero value.
func New(baseURL string, opts Options) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.MaxIdleConns <= 0 {
		opts.MaxIdleConns = 32
	}
	hc := opts.HTTPClient
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = opts.MaxIdleConns
		tr.MaxIdleConnsPerHost = opts.MaxIdleConns
		hc = &http.Client{Transport: tr}
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, hc: hc, timeout: opts.Timeout, binary: opts.Binary}
}

// Close releases pooled idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// sentinelErr rebuilds a typed error from the server's machine-readable
// code: the matching sentinel wraps the message so errors.Is works, and
// unknown codes degrade to a plain message.
func sentinelErr(codeName, msg string) error {
	if s := wire.ErrOf(wire.CodeByName(codeName)); s != nil {
		return fmt.Errorf("client: server: %s: %w", msg, s)
	}
	return fmt.Errorf("client: server: %s", msg)
}

// doReq issues one request and decodes the response envelope, mapping
// 429 and 504 to their typed errors and other non-2xx statuses to
// typed errors reconstructed from the body's error code.
func (c *Client) doReq(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-Timeout-Ms", strconv.FormatInt(c.timeout.Milliseconds(), 10))
	if id := TraceIDFrom(ctx); id != 0 {
		req.Header.Set("X-Trace-Id", strconv.FormatUint(id, 16))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// JSON inflates several-fold over the binary encoding, so the body
	// bound sits well above wire.MaxFrame; reaching it is an error, never
	// a silent truncation.
	const maxRespBody = 256 << 20
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBody+1))
	if err != nil {
		return nil, err
	}
	if len(out) > maxRespBody {
		return nil, fmt.Errorf("client: response body exceeds %d bytes", maxRespBody)
	}
	codeName, msg := decodeErrBody(out)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusCreated:
		return out, nil
	case http.StatusTooManyRequests:
		// Two shedders answer 429: the process gate (overloaded) and a
		// collection's quota. The code tells them apart.
		if codeName == wire.CodeQuota.String() {
			return nil, fmt.Errorf("client: server: %s: %w", msg, wire.ErrQuota)
		}
		retry := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return nil, &OverloadedError{RetryAfter: retry}
	case http.StatusGatewayTimeout:
		return nil, ErrDeadline
	default:
		if msg != "" {
			return nil, sentinelErr(codeName, msg)
		}
		return nil, fmt.Errorf("client: server returned status %d", resp.StatusCode)
	}
}

// decodeErrBody extracts the error code and message from either error
// encoding: the JSON ErrorResponse body or a binary error frame.
func decodeErrBody(out []byte) (codeName, msg string) {
	var er wire.ErrorResponse
	if json.Unmarshal(out, &er) == nil && er.Error != "" {
		return er.Code, er.Error
	}
	if r, ferr := wire.ReadResponse(bytes.NewReader(out)); ferr == nil && r.Err != "" {
		return r.Code.String(), r.Err
	}
	return "", ""
}

// do posts body to path (the historical verb-specific helper).
func (c *Client) do(ctx context.Context, path, contentType string, body []byte) ([]byte, error) {
	return c.doReq(ctx, http.MethodPost, path, contentType, body)
}

func (c *Client) postJSON(ctx context.Context, path string, reqBody, respBody any) error {
	raw, err := json.Marshal(reqBody)
	if err != nil {
		return err
	}
	out, err := c.do(ctx, path, "application/json", raw)
	if err != nil {
		return err
	}
	return json.Unmarshal(out, respBody)
}

func (c *Client) frame(ctx context.Context, req wire.Request) (wire.Response, error) {
	if req.TraceID == 0 {
		req.TraceID = TraceIDFrom(ctx)
	}
	raw, err := wire.AppendRequest(nil, req)
	if err != nil {
		return wire.Response{}, err
	}
	out, err := c.do(ctx, "/v1/frame", "application/octet-stream", raw)
	if err != nil {
		return wire.Response{}, err
	}
	resp, err := wire.ReadResponse(bytes.NewReader(out))
	if err != nil {
		return wire.Response{}, err
	}
	if resp.Err != "" {
		return wire.Response{}, sentinelErr(resp.Code.String(), resp.Err)
	}
	return resp, nil
}

// ---------------------------------------------------------------------------
// Collection scoping.
// ---------------------------------------------------------------------------

// Collection is a client view scoped to one named collection: the same
// operation set, addressed at /v2/collections/{name} (or carried in the
// binary frame's name field). The default collection routes over the
// pre-collections /v1 paths, so a scoped client still talks to servers
// that predate collections.
type Collection struct {
	c    *Client
	name string
}

// Collection scopes the client to the named collection. The view shares
// the client's transport; create as many as needed.
func (c *Client) Collection(name string) *Collection { return &Collection{c: c, name: name} }

// path maps an operation suffix ("search") to this collection's route.
func (col *Collection) path(op string) string {
	if col.name == wire.DefaultCollection {
		return "/v1/" + op
	}
	return "/v2/collections/" + url.PathEscape(col.name) + "/" + op
}

// Search returns the exact k nearest neighbours of q.
func (col *Collection) Search(ctx context.Context, q []float64, k int) ([]wire.Item, error) {
	results, err := col.searchOp(ctx, "search",
		wire.SearchRequest{Q: q, K: k},
		wire.Request{Op: wire.OpSearch, K: k, Queries: [][]float64{q}})
	if err != nil {
		return nil, err
	}
	return results[0].Items, nil
}

// SearchFiltered returns the exact k nearest neighbours of q among only
// the points matching the tag filter. Filtered search is JSON-only: the
// predicate vocabulary has no binary encoding yet, so a binary client
// falls back to the JSON route for this one call.
func (col *Collection) SearchFiltered(ctx context.Context, q []float64, k int, f wire.Filter) ([]wire.Item, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var sr wire.SearchResponse
	if err := col.c.postJSON(ctx, col.path("search"), wire.SearchRequest{Q: q, K: k, Filter: &f}, &sr); err != nil {
		return nil, err
	}
	if len(sr.Results) != 1 {
		return nil, fmt.Errorf("client: server answered %d results for 1 query", len(sr.Results))
	}
	return sr.Results[0].Items, nil
}

// BatchSearch submits all queries in one request; results arrive in
// query order, each the exact kNN answer.
func (col *Collection) BatchSearch(ctx context.Context, queries [][]float64, k int) ([]wire.Result, error) {
	return col.searchOp(ctx, "search",
		wire.SearchRequest{Queries: queries, K: k},
		wire.Request{Op: wire.OpSearch, K: k, Queries: queries})
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p ∈ (0,1].
func (col *Collection) SearchApprox(ctx context.Context, q []float64, k int, p float64) ([]wire.Item, error) {
	results, err := col.searchOp(ctx, "approx",
		wire.SearchRequest{Q: q, K: k, P: p},
		wire.Request{Op: wire.OpApprox, K: k, Param: p, Queries: [][]float64{q}})
	if err != nil {
		return nil, err
	}
	return results[0].Items, nil
}

// RangeSearch returns every point within distance r of q, ascending.
func (col *Collection) RangeSearch(ctx context.Context, q []float64, r float64) ([]wire.Item, error) {
	results, err := col.searchOp(ctx, "range",
		wire.SearchRequest{Q: q, R: r},
		wire.Request{Op: wire.OpRange, Param: r, Queries: [][]float64{q}})
	if err != nil {
		return nil, err
	}
	return results[0].Items, nil
}

// searchOp routes one search-class call through the configured protocol.
func (col *Collection) searchOp(ctx context.Context, op string, jreq wire.SearchRequest, breq wire.Request) ([]wire.Result, error) {
	want := len(breq.Queries)
	var results []wire.Result
	if col.c.binary {
		breq.Collection = col.name
		resp, err := col.c.frame(ctx, breq)
		if err != nil {
			return nil, err
		}
		results = resp.Results
	} else {
		var sr wire.SearchResponse
		if err := col.c.postJSON(ctx, col.path(op), jreq, &sr); err != nil {
			return nil, err
		}
		results = sr.Results
	}
	if len(results) != want {
		return nil, fmt.Errorf("client: server answered %d results for %d queries", len(results), want)
	}
	return results, nil
}

// Insert durably adds a point and returns its global id.
func (col *Collection) Insert(ctx context.Context, p []float64) (int, error) {
	if col.c.binary {
		resp, err := col.c.frame(ctx, wire.Request{Op: wire.OpInsert, Collection: col.name, Queries: [][]float64{p}})
		if err != nil {
			return 0, err
		}
		return int(resp.Value), nil
	}
	var ir wire.InsertResponse
	if err := col.c.postJSON(ctx, col.path("insert"), wire.InsertRequest{P: p}, &ir); err != nil {
		return 0, err
	}
	return ir.ID, nil
}

// InsertTagged durably adds a point with metadata tags (the handles
// filtered search matches on) and returns its global id. Tagged inserts
// are JSON-only, like the filters that consume the tags.
func (col *Collection) InsertTagged(ctx context.Context, p []float64, tags []string) (int, error) {
	var ir wire.InsertResponse
	if err := col.c.postJSON(ctx, col.path("insert"), wire.InsertRequest{P: p, Tags: tags}, &ir); err != nil {
		return 0, err
	}
	return ir.ID, nil
}

// Delete durably tombstones id, reporting whether it was live.
func (col *Collection) Delete(ctx context.Context, id int) (bool, error) {
	if col.c.binary {
		resp, err := col.c.frame(ctx, wire.Request{Op: wire.OpDelete, Collection: col.name, ID: id})
		if err != nil {
			return false, err
		}
		return resp.Value == 1, nil
	}
	var dr wire.DeleteResponse
	if err := col.c.postJSON(ctx, col.path("delete"), wire.DeleteRequest{ID: id}, &dr); err != nil {
		return false, err
	}
	return dr.Deleted, nil
}

// ---------------------------------------------------------------------------
// Default-collection convenience surface (the pre-collections API).
// ---------------------------------------------------------------------------

func (c *Client) def() *Collection { return c.Collection(wire.DefaultCollection) }

// Search returns the exact k nearest neighbours of q.
func (c *Client) Search(ctx context.Context, q []float64, k int) ([]wire.Item, error) {
	return c.def().Search(ctx, q, k)
}

// BatchSearch submits all queries in one request; results arrive in
// query order, each the exact kNN answer.
func (c *Client) BatchSearch(ctx context.Context, queries [][]float64, k int) ([]wire.Result, error) {
	return c.def().BatchSearch(ctx, queries, k)
}

// SearchApprox returns k neighbours that are the exact kNN with
// probability at least p ∈ (0,1].
func (c *Client) SearchApprox(ctx context.Context, q []float64, k int, p float64) ([]wire.Item, error) {
	return c.def().SearchApprox(ctx, q, k, p)
}

// RangeSearch returns every point within distance r of q, ascending.
func (c *Client) RangeSearch(ctx context.Context, q []float64, r float64) ([]wire.Item, error) {
	return c.def().RangeSearch(ctx, q, r)
}

// Insert durably adds a point and returns its global id.
func (c *Client) Insert(ctx context.Context, p []float64) (int, error) {
	return c.def().Insert(ctx, p)
}

// Delete durably tombstones id, reporting whether it was live.
func (c *Client) Delete(ctx context.Context, id int) (bool, error) {
	return c.def().Delete(ctx, id)
}

// ---------------------------------------------------------------------------
// Collection management.
// ---------------------------------------------------------------------------

// Collections lists every collection the server hosts, name-sorted.
func (c *Client) Collections(ctx context.Context) ([]wire.CollectionInfo, error) {
	out, err := c.doReq(ctx, http.MethodGet, "/v2/collections", "", nil)
	if err != nil {
		return nil, err
	}
	var resp wire.CollectionsResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, err
	}
	return resp.Collections, nil
}

// CollectionInfo fetches one collection's spec and state.
func (c *Client) CollectionInfo(ctx context.Context, name string) (wire.CollectionInfo, error) {
	out, err := c.doReq(ctx, http.MethodGet, "/v2/collections/"+url.PathEscape(name), "", nil)
	if err != nil {
		return wire.CollectionInfo{}, err
	}
	var info wire.CollectionInfo
	err = json.Unmarshal(out, &info)
	return info, err
}

// CreateCollection creates a named collection from spec. A name
// collision answers wire.ErrCollectionExists; a bad spec,
// wire.ErrBadCollection.
func (c *Client) CreateCollection(ctx context.Context, name string, spec wire.CollectionSpec) (wire.CollectionInfo, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return wire.CollectionInfo{}, err
	}
	out, err := c.doReq(ctx, http.MethodPut, "/v2/collections/"+url.PathEscape(name), "application/json", raw)
	if err != nil {
		return wire.CollectionInfo{}, err
	}
	var info wire.CollectionInfo
	err = json.Unmarshal(out, &info)
	return info, err
}

// DropCollection removes a named collection and its files.
func (c *Client) DropCollection(ctx context.Context, name string) error {
	_, err := c.doReq(ctx, http.MethodDelete, "/v2/collections/"+url.PathEscape(name), "", nil)
	return err
}

// ---------------------------------------------------------------------------
// Admin.
// ---------------------------------------------------------------------------

// adminPath scopes an admin route to a collection ("" = unscoped:
// single-collection servers answer for their one index, multi-collection
// servers sweep).
func adminPath(op, collection string) string {
	if collection == "" {
		return "/admin/" + op
	}
	return "/admin/" + op + "?collection=" + url.QueryEscape(collection)
}

// Reload asks the server to checkpoint and hot-swap its snapshot,
// returning the post-swap admin view.
func (c *Client) Reload(ctx context.Context) (wire.AdminResponse, error) {
	var ar wire.AdminResponse
	err := c.postJSON(ctx, adminPath("reload", ""), struct{}{}, &ar)
	return ar, err
}

// Checkpoint asks the server to fold its WAL into the snapshot.
func (c *Client) Checkpoint(ctx context.Context) (wire.AdminResponse, error) {
	var ar wire.AdminResponse
	err := c.postJSON(ctx, adminPath("checkpoint", ""), struct{}{}, &ar)
	return ar, err
}

// ReloadCollection hot-swaps one collection's snapshot.
func (c *Client) ReloadCollection(ctx context.Context, name string) (wire.AdminResponse, error) {
	var ar wire.AdminResponse
	err := c.postJSON(ctx, adminPath("reload", name), struct{}{}, &ar)
	return ar, err
}

// CheckpointCollection folds one collection's WAL into its snapshot.
func (c *Client) CheckpointCollection(ctx context.Context, name string) (wire.AdminResponse, error) {
	var ar wire.AdminResponse
	err := c.postJSON(ctx, adminPath("checkpoint", name), struct{}{}, &ar)
	return ar, err
}

// ReloadAll sweeps a hot snapshot reload across every collection,
// reporting each outcome (a failed collection never strands the rest).
func (c *Client) ReloadAll(ctx context.Context) (wire.AdminSweepResponse, error) {
	var sr wire.AdminSweepResponse
	err := c.postJSON(ctx, adminPath("reload", ""), struct{}{}, &sr)
	return sr, err
}

// CheckpointAll sweeps a checkpoint across every collection.
func (c *Client) CheckpointAll(ctx context.Context) (wire.AdminSweepResponse, error) {
	var sr wire.AdminSweepResponse
	err := c.postJSON(ctx, adminPath("checkpoint", ""), struct{}{}, &sr)
	return sr, err
}

// Health fetches the server's /healthz view. A degraded server
// (non-200) returns the parsed Health alongside an error.
func (c *Client) Health(ctx context.Context) (wire.Health, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return wire.Health{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return wire.Health{}, err
	}
	defer resp.Body.Close()
	var h wire.Health
	if derr := json.NewDecoder(resp.Body).Decode(&h); derr != nil {
		return wire.Health{}, derr
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("client: unhealthy (%d): %s", resp.StatusCode, h.Status)
	}
	return h, nil
}
