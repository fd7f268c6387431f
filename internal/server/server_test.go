package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

// testPoints builds a deterministic in-domain point set.
func testPoints(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		base := 1.0 + 2*float64(i%5)
		for j := range p {
			p[j] = base + rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// testServer builds a durable index, its handle, an oracle single core
// index over the same points, and an httptest server.
type testServer struct {
	srv    *Server
	ts     *httptest.Server
	handle *shard.Handle
	oracle *core.Index
	points [][]float64
}

func newTestServer(t *testing.T, n int, cfg Config) *testServer {
	t.Helper()
	root := filepath.Join(t.TempDir(), "durable")
	pts := testPoints(n, 10, 5)
	opts := shard.DurableOptions{
		Shards:          3,
		Core:            core.Options{M: 4, Seed: 2},
		CheckpointBytes: -1,
	}
	d, err := shard.BuildDurable(bregman.ItakuraSaito{}, pts, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := shard.NewHandle(d)
	oracle, err := core.Build(bregman.ItakuraSaito{}, pts, core.Options{M: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(h, func() (*shard.Durable, error) { return shard.OpenDurable(root, opts) }, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		h.Close()
	})
	return &testServer{srv: srv, ts: ts, handle: h, oracle: oracle, points: pts}
}

func (s *testServer) postJSON(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func itemsOf(res core.Result) []wire.Item {
	out := make([]wire.Item, len(res.Items))
	for i, it := range res.Items {
		out[i] = wire.Item{ID: it.ID, Distance: it.Score}
	}
	return out
}

// TestServerJSONOracle pins the marshalling contract: every JSON route
// answers bit-identically to the in-process index.
func TestServerJSONOracle(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	queries := testPoints(8, 10, 31)
	const k = 5

	for _, q := range queries {
		want, err := s.oracle.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: q, K: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d: %s", resp.StatusCode, body)
		}
		var sr wire.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Results) != 1 || !reflect.DeepEqual(sr.Results[0].Items, itemsOf(want)) {
			t.Fatalf("search answer drifted\ngot  %+v\nwant %+v", sr.Results, itemsOf(want))
		}
	}

	// Batch form: one request, all queries, in order.
	resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Queries: queries, K: k})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var sr wire.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(sr.Results), len(queries))
	}
	for i, q := range queries {
		want, _ := s.oracle.Search(q, k)
		if !reflect.DeepEqual(sr.Results[i].Items, itemsOf(want)) {
			t.Fatalf("batch query %d drifted", i)
		}
	}

	// Approx with p=1 degenerates to exact search.
	resp, body = s.postJSON(t, "/v1/approx", wire.SearchRequest{Q: queries[0], K: k, P: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("approx status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want, _ := s.oracle.Search(queries[0], k)
	if !reflect.DeepEqual(sr.Results[0].Items, itemsOf(want)) {
		t.Fatalf("approx p=1 drifted from exact")
	}

	// Range against the oracle's range search.
	wantItems, _, err := s.oracle.RangeSearch(queries[1], 2.0)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = s.postJSON(t, "/v1/range", wire.SearchRequest{Q: queries[1], R: 2.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr.Results[0].Items, itemsOf(core.Result{Items: wantItems})) {
		t.Fatalf("range drifted\ngot  %+v\nwant %+v", sr.Results[0].Items, wantItems)
	}

	// Insert lands durably, is searchable, and Delete tombstones it.
	newPt := testPoints(1, 10, 77)[0]
	resp, body = s.postJSON(t, "/v1/insert", wire.InsertRequest{P: newPt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	var ir wire.InsertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.ID != len(s.points) {
		t.Fatalf("insert id = %d, want %d", ir.ID, len(s.points))
	}
	resp, body = s.postJSON(t, "/v1/search", wire.SearchRequest{Q: newPt, K: 1})
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Results[0].Items[0].ID != ir.ID || sr.Results[0].Items[0].Distance != 0 {
		t.Fatalf("inserted point not found: %+v", sr.Results[0].Items)
	}
	resp, body = s.postJSON(t, "/v1/delete", wire.DeleteRequest{ID: ir.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, body)
	}
	var dr wire.DeleteResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Deleted {
		t.Fatal("delete reported not-live")
	}
	// Repeat delete is a no-op.
	_, body = s.postJSON(t, "/v1/delete", wire.DeleteRequest{ID: ir.ID})
	json.Unmarshal(body, &dr)
	if dr.Deleted {
		t.Fatal("double delete reported live")
	}

	// Healthz reflects the state.
	hresp, err := http.Get(s.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hh wire.Health
	if err := json.NewDecoder(hresp.Body).Decode(&hh); err != nil {
		t.Fatal(err)
	}
	if hh.Status != "ok" || hh.N != len(s.points)+1 || hh.Live != len(s.points) || hh.Dim != 10 {
		t.Fatalf("healthz: %+v", hh)
	}
}

// TestServerBinaryOracle drives the /v1/frame binary protocol across
// every op and checks answers against the oracle.
func TestServerBinaryOracle(t *testing.T) {
	s := newTestServer(t, 250, Config{})
	queries := testPoints(6, 10, 41)
	const k = 4

	do := func(req wire.Request) (wire.Response, int) {
		t.Helper()
		frame, err := wire.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(s.ts.URL+"/v1/frame", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		resp, err := wire.ReadResponse(hr.Body)
		if err != nil {
			t.Fatalf("status %d: %v", hr.StatusCode, err)
		}
		return resp, hr.StatusCode
	}

	// Batch search in one frame.
	resp, code := do(wire.Request{Op: wire.OpSearch, K: k, Queries: queries})
	if code != http.StatusOK || resp.Err != "" {
		t.Fatalf("frame search: %d %q", code, resp.Err)
	}
	for i, q := range queries {
		want, _ := s.oracle.Search(q, k)
		if !reflect.DeepEqual(resp.Results[i].Items, itemsOf(want)) {
			t.Fatalf("frame search query %d drifted", i)
		}
	}

	// Approx p=1, range, insert, delete.
	resp, _ = do(wire.Request{Op: wire.OpApprox, K: k, Param: 1, Queries: queries[:1]})
	want, _ := s.oracle.Search(queries[0], k)
	if resp.Err != "" || !reflect.DeepEqual(resp.Results[0].Items, itemsOf(want)) {
		t.Fatalf("frame approx drifted: %q", resp.Err)
	}
	wantItems, _, _ := s.oracle.RangeSearch(queries[0], 1.5)
	resp, _ = do(wire.Request{Op: wire.OpRange, Param: 1.5, Queries: queries[:1]})
	if resp.Err != "" || !reflect.DeepEqual(resp.Results[0].Items, itemsOf(core.Result{Items: wantItems})) {
		t.Fatalf("frame range drifted: %q", resp.Err)
	}
	pt := testPoints(1, 10, 99)[0]
	resp, _ = do(wire.Request{Op: wire.OpInsert, Queries: [][]float64{pt}})
	if resp.Err != "" || resp.Value != int64(len(s.points)) {
		t.Fatalf("frame insert: %q value=%d", resp.Err, resp.Value)
	}
	resp, _ = do(wire.Request{Op: wire.OpDelete, ID: int(resp.Value)})
	if resp.Err != "" || resp.Value != 1 {
		t.Fatalf("frame delete: %q value=%d", resp.Err, resp.Value)
	}

	// Malformed frame → 400 with an error frame, never a hang or panic.
	hr, err := http.Post(s.ts.URL+"/v1/frame", "application/octet-stream",
		bytes.NewReader([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed frame status = %d, want 400", hr.StatusCode)
	}
}

// TestServerRejectsBadInput pins the 400 mapping: geometry, coordinate,
// and parameter mistakes never reach the engine as 500s.
func TestServerRejectsBadInput(t *testing.T) {
	s := newTestServer(t, 120, Config{})
	cases := []struct {
		path string
		body any
	}{
		{"/v1/search", wire.SearchRequest{K: 5}},                                             // no queries
		{"/v1/search", wire.SearchRequest{Q: []float64{1}, Queries: [][]float64{{1}}, K: 5}}, // both
		{"/v1/search", wire.SearchRequest{Q: []float64{1, 2}, K: 5}},                         // bad dim
		{"/v1/search", wire.SearchRequest{Q: testPoints(1, 10, 1)[0], K: 0}},                 // bad k
		{"/v1/approx", wire.SearchRequest{Q: testPoints(1, 10, 1)[0], K: 5, P: 0}},           // bad p
		{"/v1/approx", wire.SearchRequest{Q: testPoints(1, 10, 1)[0], K: 5, P: 1.5}},         // bad p
		{"/v1/range", wire.SearchRequest{Q: testPoints(1, 10, 1)[0], R: -1}},                 // bad r
		{"/v1/insert", wire.InsertRequest{P: []float64{1, 2}}},                               // bad dim
		{"/v1/insert", map[string]any{"p": []float64{1}, "bogus": true}},                     // unknown field
	}
	for _, c := range cases {
		resp, body := s.postJSON(t, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %+v: status %d (%s), want 400", c.path, c.body, resp.StatusCode, body)
		}
		var er wire.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Fatalf("%s: error body not descriptive: %s", c.path, body)
		}
	}

	// NaN coordinates cannot be expressed in JSON numbers; the binary
	// path rejects them at decode (TestServerBinaryOracle) and raw JSON
	// NaN is a parse error:
	resp, err := http.Post(s.ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"q":[NaN],"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN JSON status = %d, want 400", resp.StatusCode)
	}
}

// TestServerShedsUnderOverload is the admission-control acceptance test:
// with the in-flight limit saturated, the next request sheds with 429 +
// Retry-After instead of queueing, and /metrics reflects the shed and
// the queue depth.
func TestServerShedsUnderOverload(t *testing.T) {
	s := newTestServer(t, 150, Config{MaxInFlight: 2, RetryAfter: 2 * time.Second})
	q := testPoints(1, 10, 3)[0]
	metricsText := func() string {
		t.Helper()
		mresp, err := http.Get(s.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mbody, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		return string(mbody)
	}

	// Hold both in-flight slots, as two admitted requests would.
	sem := s.srv.searchGate.sem
	for len(sem) < cap(sem) {
		sem <- struct{}{}
	}

	// The third request must shed, not queue.
	resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: q, K: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Metrics reflect the shed and the in-flight saturation while the
	// slots are held.
	text := metricsText()
	for _, want := range []string{
		`breserved_shed_total{class="search"} 1`,
		`breserved_inflight{class="search"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// Once the slots free up, requests are admitted again.
	for len(sem) > 0 {
		<-sem
	}
	if resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: q, K: 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release search failed: %d %s", resp.StatusCode, body)
	}
	if text := metricsText(); !strings.Contains(text, `breserved_inflight{class="search"} 0`) {
		t.Fatalf("post-release metrics missing idle gate:\n%s", text)
	}
}

// TestServerDeadline pins the per-request deadline: a request whose
// X-Timeout-Ms expires while it waits for a full collection quota gets
// 504 and the deadline counter moves.
func TestServerDeadline(t *testing.T) {
	s := newTestServer(t, 100, Config{})
	tn, err := s.srv.tenant(wire.DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	// One in-flight slot, held: the request queues behind it and waits
	// under its deadline.
	tn.quota = newQuotaGate(wire.Quota{MaxInflight: 1}, 1)
	tn.quota.inflight <- struct{}{}
	q := testPoints(1, 10, 3)[0]
	raw, _ := json.Marshal(wire.SearchRequest{Q: q, K: 3})
	req, err := http.NewRequest("POST", s.ts.URL+"/v1/search", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Timeout-Ms", "20")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, body)
	}
	mresp, _ := http.Get(s.ts.URL + "/metrics")
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "breserved_deadline_total 1") {
		t.Fatalf("deadline counter not incremented:\n%s", mbody)
	}
}

// TestServerReloadUnderConcurrentLoad is the hot-swap acceptance test:
// concurrent searches across repeated /admin/reload calls stay
// bit-identical to the oracle and none are dropped; the reload counter
// and version metric hold steady. Run with -race in CI.
func TestServerReloadUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, 300, Config{})
	queries := testPoints(10, 10, 61)
	const k = 5
	want := make([][]wire.Item, len(queries))
	for i, q := range queries {
		res, err := s.oracle.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = itemsOf(res)
	}
	verBefore := s.handle.Version()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % len(queries)
				resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: queries[qi], K: k})
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("search during reload: %d %s", resp.StatusCode, body)
					return
				}
				var sr wire.SearchResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(sr.Results[0].Items, want[qi]) {
					errc <- fmt.Errorf("answer drifted across reload for query %d", qi)
					return
				}
			}
		}(w)
	}

	for r := 0; r < 3; r++ {
		resp, body := s.postJSON(t, "/admin/reload", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: %d %s", r, resp.StatusCode, body)
		}
		var ar wire.AdminResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Version != verBefore {
			t.Fatalf("reload changed version: %d -> %d", verBefore, ar.Version)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Mutations still work after the swaps and the metrics record them.
	resp, body := s.postJSON(t, "/v1/insert", wire.InsertRequest{P: s.points[0]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload insert: %d %s", resp.StatusCode, body)
	}
	mresp, _ := http.Get(s.ts.URL + "/metrics")
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "breserved_reload_total 3") {
		t.Fatalf("reload counter missing:\n%s", mbody)
	}
}
