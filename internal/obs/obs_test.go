package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"total", "admission", "coalesce", "queue", "run", "scan", "refine", "cold"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.AddSpan(StageRun, time.Millisecond)
	tr.Add(Counters{Nodes: 5})
	tr.AddShard(ShardSpan{Shard: 1})
	tr.SetQuery(10, 1)
	tr.Release()
	if tr.ID() != 0 || tr.Span(StageRun) != 0 || tr.K() != 0 || tr.NQ() != 0 {
		t.Fatal("nil trace returned nonzero state")
	}
	if c := tr.Counters(); c != (Counters{}) {
		t.Fatalf("nil trace counters = %+v", c)
	}
	if s := tr.Shards(); s != nil {
		t.Fatalf("nil trace shards = %v", s)
	}
}

func TestTraceAccumulatesAndResets(t *testing.T) {
	tr := NewTrace(42)
	if tr.ID() != 42 {
		t.Fatalf("ID = %d", tr.ID())
	}
	tr.SetQuery(10, 3)
	tr.AddSpan(StageQueue, 2*time.Millisecond)
	tr.AddSpan(StageQueue, 3*time.Millisecond)
	tr.Add(Counters{Nodes: 7, Candidates: 2})
	tr.Add(Counters{Nodes: 1, ColdFaults: 4})
	tr.AddShard(ShardSpan{Shard: 0, Run: time.Millisecond, Items: 5})
	if got := tr.Span(StageQueue); got != 5*time.Millisecond {
		t.Errorf("queue span = %v", got)
	}
	c := tr.Counters()
	if c.Nodes != 8 || c.Candidates != 2 || c.ColdFaults != 4 {
		t.Errorf("counters = %+v", c)
	}
	if len(tr.Shards()) != 1 || tr.K() != 10 || tr.NQ() != 3 {
		t.Errorf("shards/k/nq wrong: %v %d %d", tr.Shards(), tr.K(), tr.NQ())
	}
	tr.Release()

	// A pooled re-acquire must come back zeroed.
	tr2 := NewTrace(43)
	defer tr2.Release()
	if tr2.Span(StageQueue) != 0 || tr2.Counters() != (Counters{}) ||
		len(tr2.Shards()) != 0 || tr2.K() != 0 {
		t.Fatal("pooled trace not reset")
	}
}

// TestTraceRetainKeepsOutOfPool pins the reference count: a trace with
// an outstanding Retain survives the creator's Release — the pool must
// not re-issue it while a worker could still be recording into it.
func TestTraceRetainKeepsOutOfPool(t *testing.T) {
	tr := NewTrace(9)
	tr.Retain()  // e.g. a queued engine job
	tr.Release() // creator's reference drops first (abandoned request)
	if tr.ID() != 9 {
		t.Fatalf("retained trace lost its id: %d", tr.ID())
	}
	tr.AddSpan(StageRun, time.Millisecond)
	// With a reference still held, a pool re-acquire on this goroutine
	// must not hand tr back (the buggy behavior pooled on first Release,
	// and sync.Pool's private slot would return it here).
	fresh := NewTrace(10)
	if fresh == tr {
		t.Fatal("pool re-issued a trace with a live reference")
	}
	if got := tr.Span(StageRun); got != time.Millisecond {
		t.Fatalf("retained trace span = %v", got)
	}
	fresh.Release()
	tr.Release() // final reference pools it

	var nilTr *Trace
	nilTr.Retain() // nil-safe like every other method
	nilTr.Release()
}

func TestTraceConcurrentAdds(t *testing.T) {
	tr := NewTrace(1)
	defer tr.Release()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.AddSpan(StageRun, time.Microsecond)
				tr.Add(Counters{DistanceComps: 1})
				tr.AddShard(ShardSpan{Shard: i})
			}
		}()
	}
	wg.Wait()
	if got := tr.Span(StageRun); got != 8000*time.Microsecond {
		t.Errorf("run span = %v", got)
	}
	if c := tr.Counters(); c.DistanceComps != 8000 {
		t.Errorf("distance comps = %d", c.DistanceComps)
	}
	if n := len(tr.Shards()); n != maxShardSpans {
		t.Errorf("shard spans = %d, want capped at %d", n, maxShardSpans)
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context yielded a trace")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("nil trace should not wrap the context")
	}
	tr := NewTrace(7)
	defer tr.Release()
	if got := From(NewContext(ctx, tr)); got != tr {
		t.Fatalf("From = %p, want %p", got, tr)
	}
}

func TestNextIDUniqueNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NextID()
		if id == 0 {
			t.Fatal("zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %x", id)
		}
		seen[id] = true
	}
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample() || NewSampler(-1).Sample() {
		t.Error("rate<=0 sampled")
	}
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("rate 1 skipped a request")
		}
	}
	s = NewSampler(0.1)
	n := 0
	for i := 0; i < 1000; i++ {
		if s.Sample() {
			n++
		}
	}
	if n != 100 {
		t.Errorf("rate 0.1 sampled %d of 1000", n)
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Error("nil sampler sampled")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(50 * time.Microsecond)  // <= 100µs bucket
	h.Observe(700 * time.Microsecond) // <= 1ms bucket
	h.Observe(20 * time.Second)       // beyond the ladder: +Inf only
	h.Observe(-time.Second)           // clamped to 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Cumulative[0] != 2 { // 100µs bucket holds the 50µs and clamped-0 observes
		t.Errorf("le=100µs cumulative = %d", s.Cumulative[0])
	}
	if s.Cumulative[3] != 3 { // 1ms bucket adds the 700µs observe
		t.Errorf("le=1ms cumulative = %d", s.Cumulative[3])
	}
	if s.Cumulative[NumBuckets-1] != 3 { // 20s is beyond the last finite bound
		t.Errorf("last finite cumulative = %d", s.Cumulative[NumBuckets-1])
	}
	wantSum := (50*time.Microsecond + 700*time.Microsecond + 20*time.Second).Seconds()
	if s.Sum < wantSum-1e-9 || s.Sum > wantSum+1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	// Cumulative counts must be monotone.
	for i := 1; i < NumBuckets; i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone at %d", i)
		}
	}
	var nilH *Histogram
	nilH.Observe(time.Second)
	if nilH.Snapshot().Count != 0 {
		t.Error("nil histogram recorded")
	}
}

func TestStageHistsObserveTrace(t *testing.T) {
	sh := NewStageHists()
	tr := NewTrace(1)
	defer tr.Release()
	tr.AddSpan(StageQueue, time.Millisecond)
	tr.AddSpan(StageRun, 2*time.Millisecond)
	sh.ObserveTrace(tr, 5*time.Millisecond)
	if sh.Hist(StageTotal).Snapshot().Count != 1 {
		t.Error("total not observed")
	}
	if sh.Hist(StageQueue).Snapshot().Count != 1 || sh.Hist(StageRun).Snapshot().Count != 1 {
		t.Error("touched stages not observed")
	}
	if sh.Hist(StageCold).Snapshot().Count != 0 {
		t.Error("untouched stage observed")
	}
	// Untraced request: only the total records.
	sh.ObserveTrace(nil, time.Millisecond)
	if sh.Hist(StageTotal).Snapshot().Count != 2 {
		t.Error("nil-trace total not observed")
	}
	var nilSH *StageHists
	nilSH.Observe(StageTotal, time.Second)
	nilSH.ObserveTrace(tr, time.Second)
	if nilSH.Hist(StageTotal) != nil {
		t.Error("nil StageHists returned a histogram")
	}
}

func TestSlowLogSchema(t *testing.T) {
	var buf bytes.Buffer
	sl := &SlowLog{Threshold: time.Millisecond, Logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	tr := NewTrace(0xabcd)
	defer tr.Release()
	tr.SetQuery(10, 1)
	tr.AddSpan(StageRun, 2*time.Millisecond)
	tr.Add(Counters{Nodes: 3, DistanceComps: 9})

	sl.MaybeLog("audio", "search", tr, 500*time.Microsecond) // below threshold
	if buf.Len() != 0 {
		t.Fatal("fast query logged")
	}
	sl.MaybeLog("audio", "search", tr, 3*time.Millisecond)
	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 || line == "" {
		t.Fatalf("want exactly one line, got %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if rec["msg"] != "slow query" || rec["trace_id"] != "000000000000abcd" ||
		rec["collection"] != "audio" || rec["op"] != "search" {
		t.Errorf("record = %v", rec)
	}
	stages, ok := rec["stages"].(map[string]any)
	if !ok {
		t.Fatalf("no stages group in %v", rec)
	}
	for _, k := range []string{"admission_ms", "coalesce_ms", "queue_ms", "run_ms", "scan_ms", "refine_ms", "cold_ms"} {
		if _, ok := stages[k]; !ok {
			t.Errorf("stage key %q missing", k)
		}
	}
	counters, ok := rec["counters"].(map[string]any)
	if !ok {
		t.Fatalf("no counters group in %v", rec)
	}
	if counters["nodes"].(float64) != 3 || counters["distance_comps"].(float64) != 9 {
		t.Errorf("counters = %v", counters)
	}

	// Disabled configurations never emit.
	buf.Reset()
	(&SlowLog{Threshold: 0, Logger: sl.Logger}).MaybeLog("a", "search", tr, time.Hour)
	(&SlowLog{Threshold: time.Millisecond}).MaybeLog("a", "search", tr, time.Hour)
	var nilSL *SlowLog
	nilSL.MaybeLog("a", "search", tr, time.Hour)
	if buf.Len() != 0 {
		t.Error("disabled slow log emitted")
	}
}
