package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"brepartition/internal/core"
	"brepartition/internal/obs"
	"brepartition/internal/wire"
)

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// slowLine mirrors the slow-query log's JSON schema (obs.SlowLog).
type slowLine struct {
	Msg        string             `json:"msg"`
	TraceID    string             `json:"trace_id"`
	Collection string             `json:"collection"`
	Op         string             `json:"op"`
	K          int                `json:"k"`
	NQ         int                `json:"nq"`
	Shards     int                `json:"shards"`
	TotalMS    float64            `json:"total_ms"`
	Stages     map[string]float64 `json:"stages"`
	Counters   map[string]int64   `json:"counters"`
}

var (
	wantStageKeys = []string{
		"admission_ms", "coalesce_ms", "queue_ms", "run_ms",
		"scan_ms", "refine_ms", "cold_ms",
	}
	wantCounterKeys = []string{
		"nodes", "leaves", "candidates", "distance_comps", "page_reads",
		"cold_scanned", "cold_pruned", "cold_faults", "cold_hits",
	}
)

func parseSlowLines(t *testing.T, buf *bytes.Buffer) []slowLine {
	t.Helper()
	var out []slowLine
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if raw == "" {
			continue
		}
		var l slowLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("slow-log line is not valid JSON: %v\n%s", err, raw)
		}
		out = append(out, l)
	}
	return out
}

// TestTraceStageIdentityAndSlowLog pins the end-to-end trace contract:
// with a 1ns threshold every search logs exactly one well-formed JSON
// line, the line carries every stage and counter key, and the
// sequential stage spans (admission+coalesce+queue+run) tile the
// request's total duration — they never exceed it, and the uncovered
// remainder is bounded handler overhead.
func TestTraceStageIdentityAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, 1000, Config{
		TraceSample:        1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	queries := testPoints(6, 10, 77)
	const k = 5

	for _, q := range queries {
		resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: q, K: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d: %s", resp.StatusCode, body)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatal("traced response missing X-Trace-Id echo")
		}
	}

	lines := parseSlowLines(t, &buf)
	if len(lines) != len(queries) {
		t.Fatalf("slow log emitted %d lines for %d slow queries", len(lines), len(queries))
	}
	for i, l := range lines {
		if l.Msg != "slow query" {
			t.Fatalf("line %d: msg %q", i, l.Msg)
		}
		if l.Collection != wire.DefaultCollection || l.Op != "search" {
			t.Fatalf("line %d: collection=%q op=%q", i, l.Collection, l.Op)
		}
		if l.K != k || l.NQ != 1 {
			t.Fatalf("line %d: k=%d nq=%d", i, l.K, l.NQ)
		}
		if l.TraceID == "" || l.TraceID == "0000000000000000" {
			t.Fatalf("line %d: bad trace id %q", i, l.TraceID)
		}
		if l.Shards != 3 {
			t.Fatalf("line %d: %d shard spans, want 3", i, l.Shards)
		}
		for _, key := range wantStageKeys {
			if _, ok := l.Stages[key]; !ok {
				t.Fatalf("line %d: stage key %q missing: %+v", i, key, l.Stages)
			}
		}
		for _, key := range wantCounterKeys {
			if _, ok := l.Counters[key]; !ok {
				t.Fatalf("line %d: counter key %q missing: %+v", i, key, l.Counters)
			}
		}
		if l.TotalMS <= 0 {
			t.Fatalf("line %d: total_ms %g", i, l.TotalMS)
		}
		// The four sequential stages are disjoint sub-intervals of the
		// request, so their sum never exceeds the total (small slack for
		// clock granularity), and what they leave uncovered is just
		// decode/encode/fan-out overhead — bounded, not proportional to
		// search work.
		seq := l.Stages["admission_ms"] + l.Stages["coalesce_ms"] +
			l.Stages["queue_ms"] + l.Stages["run_ms"]
		if seq > l.TotalMS*1.05+0.1 {
			t.Fatalf("line %d: sequential stages %.3fms exceed total %.3fms", i, seq, l.TotalMS)
		}
		gap := l.TotalMS - seq
		slack := 10.0
		if r := 0.75 * l.TotalMS; r > slack {
			slack = r
		}
		if gap > slack {
			t.Fatalf("line %d: stages cover too little: total %.3fms, stages %.3fms", i, l.TotalMS, seq)
		}
	}

	// A lone search goes straight to the engine over either protocol, so
	// no traced request ever waits in a batching window.
	frame, err := wire.AppendRequest(nil, wire.Request{Op: wire.OpSearch, K: k, Queries: queries[:1]})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(s.ts.URL+"/v1/frame", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, hr); hr.StatusCode != http.StatusOK {
		t.Fatalf("frame search status %d: %q", hr.StatusCode, body)
	}
	budget, err := s.srv.StageBudget(wire.DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	if got := budget["total"].Count; got != int64(len(queries)+1) {
		t.Fatalf("stage budget observed %d requests, want %d", got, len(queries)+1)
	}
	if _, ok := budget[obs.StageCoalesce.String()]; ok {
		t.Fatalf("a lone search recorded a coalesce span: %+v", budget[obs.StageCoalesce.String()])
	}
}

// TestTraceCountersMatchRecount pins the scan counters against a
// brute-force recount: the counters a traced request logs must equal
// the stats the same search reports when run directly on the handle.
func TestTraceCountersMatchRecount(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, 800, Config{
		TraceSample:        1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	queries := testPoints(5, 10, 41)
	const k = 5

	for _, q := range queries {
		resp, body := s.postJSON(t, "/v1/search", wire.SearchRequest{Q: q, K: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d: %s", resp.StatusCode, body)
		}
	}
	lines := parseSlowLines(t, &buf)
	if len(lines) != len(queries) {
		t.Fatalf("got %d slow-log lines for %d queries", len(lines), len(queries))
	}
	for i, q := range queries {
		want, err := s.handle.Query(nil, &core.Query{Vec: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		got := lines[i].Counters
		checks := []struct {
			key  string
			want int64
		}{
			{"nodes", int64(want.Stats.NodesVisited)},
			{"leaves", int64(want.Stats.LeavesVisited)},
			{"candidates", int64(want.Stats.Candidates)},
			{"distance_comps", int64(want.Stats.DistanceComps)},
			{"page_reads", int64(want.Stats.PageReads)},
			{"cold_scanned", 0},
			{"cold_faults", 0},
		}
		for _, c := range checks {
			if got[c.key] != c.want {
				t.Errorf("query %d: counter %s = %d, recount says %d", i, c.key, got[c.key], c.want)
			}
		}
	}
}

// TestTracedAnswersBitIdentical pins that tracing is observation only:
// the same query answered with a forced trace (X-Trace-Id) and without
// produces byte-identical response bodies.
func TestTracedAnswersBitIdentical(t *testing.T) {
	s := newTestServer(t, 600, Config{})
	queries := testPoints(4, 10, 91)
	const k = 5

	for i, q := range queries {
		raw, err := json.Marshal(wire.SearchRequest{Q: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		plainResp, err := http.Post(s.ts.URL+"/v1/search", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		plain := readAll(t, plainResp)

		req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/search", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Trace-Id", "deadbeef")
		tracedResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		traced := readAll(t, tracedResp)

		if plainResp.StatusCode != http.StatusOK || tracedResp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d / %d", i, plainResp.StatusCode, tracedResp.StatusCode)
		}
		if got := tracedResp.Header.Get("X-Trace-Id"); got != "00000000deadbeef" {
			t.Fatalf("query %d: X-Trace-Id echo %q", i, got)
		}
		if plainResp.Header.Get("X-Trace-Id") != "" {
			t.Fatalf("query %d: untraced response grew an X-Trace-Id header", i)
		}
		if !bytes.Equal(plain, traced) {
			t.Fatalf("query %d: traced answer differs from untraced\nplain  %s\ntraced %s", i, plain, traced)
		}
	}
}

// TestFrameTraceEcho pins the binary protocol's trace field: a frame
// carrying a trace id gets it echoed in the response frame, and the
// answer matches the untraced frame's answer.
func TestFrameTraceEcho(t *testing.T) {
	s := newTestServer(t, 400, Config{})
	q := testPoints(1, 10, 17)[0]
	const k = 3

	post := func(traceID uint64) wire.Response {
		t.Helper()
		frame, err := wire.AppendRequest(nil, wire.Request{
			Op: wire.OpSearch, K: k, Queries: [][]float64{q}, TraceID: traceID,
		})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(s.ts.URL+"/v1/frame", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		out, err := wire.ReadResponse(hr.Body)
		if err != nil {
			t.Fatalf("status %d: %v", hr.StatusCode, err)
		}
		if out.Err != "" {
			t.Fatalf("frame search failed: %q", out.Err)
		}
		return out
	}

	plain := post(0)
	traced := post(0xabcd1234)
	if plain.TraceID != 0 {
		t.Fatalf("untraced frame response carries trace id %#x", plain.TraceID)
	}
	if traced.TraceID != 0xabcd1234 {
		t.Fatalf("traced frame response echoed %#x, want 0xabcd1234", traced.TraceID)
	}
	if len(plain.Results) != 1 || len(traced.Results) != 1 ||
		!reflect.DeepEqual(plain.Results[0].Items, traced.Results[0].Items) {
		t.Fatalf("traced frame answer differs\nplain  %+v\ntraced %+v", plain.Results, traced.Results)
	}
}

// TestFrameServerTraceStaysInternal pins v2 wire compatibility when the
// server traces on its own initiative: with sampling at 1 and the
// slow-query log tracing every search, a frame request that carries no
// trace id must still get a response with TraceID 0 — the server-side
// trace exists (the slow log proves it) but never reaches the wire,
// so trace-unaware v2 decoders keep working.
func TestFrameServerTraceStaysInternal(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, 300, Config{
		TraceSample:        1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	q := testPoints(1, 10, 23)[0]

	post := func(traceID uint64) wire.Response {
		t.Helper()
		frame, err := wire.AppendRequest(nil, wire.Request{
			Op: wire.OpSearch, K: 3, Queries: [][]float64{q}, TraceID: traceID,
		})
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.Post(s.ts.URL+"/v1/frame", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		out, err := wire.ReadResponse(hr.Body)
		if err != nil {
			t.Fatalf("status %d: %v", hr.StatusCode, err)
		}
		if out.Err != "" {
			t.Fatalf("frame search failed: %q", out.Err)
		}
		return out
	}

	if got := post(0).TraceID; got != 0 {
		t.Fatalf("sampler-traced frame response leaked server trace id %#x onto the wire", got)
	}
	// The trace still ran internally: the slow log saw the query.
	deadline := time.Now().Add(5 * time.Second)
	for len(parseSlowLines(t, &buf)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server-initiated trace never reached the slow log")
		}
		time.Sleep(time.Millisecond)
	}
	// A client-forced id still echoes as before.
	if got := post(0x77).TraceID; got != 0x77 {
		t.Fatalf("client-forced frame trace id echoed %#x, want 0x77", got)
	}
}

// TestQuotaShedSkipsLatencyObservation pins the admission/served split:
// a request the collection quota turns away never entered the pipeline,
// so it must not record into the stage histograms or emit a slow-query
// log line — shed wait time would otherwise skew the served-latency
// series dashboards alert on.
func TestQuotaShedSkipsLatencyObservation(t *testing.T) {
	var buf bytes.Buffer
	f := newMultiFixture(t, Config{
		MaxInFlight:        64,
		TraceSample:        1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	ctx := context.Background()
	spec := wire.CollectionSpec{
		Divergence: "l2", Dim: 4, M: 2,
		Quota: &wire.Quota{MaxInflight: 1, MaxQueue: 1},
	}
	if _, err := f.json.CreateCollection(ctx, "tight", spec); err != nil {
		t.Fatal(err)
	}
	pts := testPoints(40, 4, 19)
	col := f.json.Collection("tight")
	for _, p := range pts {
		if _, err := col.Insert(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	tn, err := f.srv.tenant("tight")
	if err != nil {
		t.Fatal(err)
	}

	// One served search establishes the baseline; finishTrace runs after
	// the response is written, so poll for its observation to land.
	if _, err := col.Search(ctx, pts[0], 3); err != nil {
		t.Fatal(err)
	}
	total := tn.hist.Hist(obs.StageTotal)
	deadline := time.Now().Add(5 * time.Second)
	for total.Snapshot().Count != 1 || len(parseSlowLines(t, &buf)) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("served search never observed: count=%d lines=%d",
				total.Snapshot().Count, len(parseSlowLines(t, &buf)))
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the quota queue so the next search on either protocol sheds.
	filled := 0
	for len(tn.quota.queue) < cap(tn.quota.queue) {
		tn.quota.queue <- struct{}{}
		filled++
	}
	if _, err := col.Search(ctx, pts[0], 3); !errors.Is(err, wire.ErrQuota) {
		t.Fatalf("json search against a full quota: %v", err)
	}
	if _, err := f.bin.Collection("tight").Search(ctx, pts[0], 3); !errors.Is(err, wire.ErrQuota) {
		t.Fatalf("binary search against a full quota: %v", err)
	}
	for ; filled > 0; filled-- {
		<-tn.quota.queue
	}

	// Give the shed requests' deferred finishTrace time to (not) record.
	time.Sleep(100 * time.Millisecond)
	if got := total.Snapshot().Count; got != 1 {
		t.Fatalf("shed requests recorded into the latency histogram: count=%d, want 1", got)
	}
	if got := len(parseSlowLines(t, &buf)); got != 1 {
		t.Fatalf("shed requests reached the slow-query log: %d lines, want 1", got)
	}
}
