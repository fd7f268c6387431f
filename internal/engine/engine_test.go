package engine

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
)

// buildIndex constructs a small deterministic index for the tests.
func buildIndex(t testing.TB, n, d, m int) (*core.Index, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		base := 1.0 + 2*float64(i%4)
		for j := range p {
			p[j] = base + rng.Float64()
		}
		points[i] = p
	}
	ix, err := core.Build(bregman.ItakuraSaito{}, points, core.Options{M: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 24)
	for i := range queries {
		q := make([]float64, d)
		base := 1.0 + 2*float64(i%4)
		for j := range q {
			q[j] = base + rng.Float64()
		}
		queries[i] = q
	}
	return ix, queries
}

// sameAnswer compares the deterministic parts of two results: the answer
// items and the work counters that do not depend on wall time.
func sameAnswer(a, b core.Result) bool {
	return reflect.DeepEqual(a.Items, b.Items) &&
		a.Stats.PageReads == b.Stats.PageReads &&
		a.Stats.Candidates == b.Stats.Candidates &&
		a.Stats.BoundTotal == b.Stats.BoundTotal
}

func TestBatchMatchesSequential(t *testing.T) {
	ix, queries := buildIndex(t, 600, 24, 4)
	// Duplicate some queries so the cache path is exercised inside a batch.
	queries = append(queries, queries[0], queries[3], queries[3])

	const k = 7
	want := make([]core.Result, len(queries))
	for i, q := range queries {
		res, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, cfg := range []Config{
		{Workers: 1},
		{Workers: 4},
		{Workers: 8},
		{Workers: 4, CacheSize: -1}, // cache disabled
	} {
		e := New(ix, cfg)
		got, err := e.BatchSearch(queries, k)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: got %d results, want %d", cfg, len(got), len(want))
		}
		for i := range got {
			if !sameAnswer(got[i], want[i]) {
				t.Errorf("cfg %+v query %d: engine answer diverges from sequential Search\ngot  %+v\nwant %+v",
					cfg, i, got[i].Items, want[i].Items)
			}
		}
	}
}

func TestSubmitAwait(t *testing.T) {
	ix, queries := buildIndex(t, 300, 16, 4)
	e := New(ix, Config{Workers: 3})
	futures := make([]*Future, len(queries))
	for i, q := range queries {
		futures[i] = e.Submit(q, 5)
	}
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Items) != 5 {
			t.Fatalf("query %d: got %d items, want 5", i, len(res.Items))
		}
	}
	// Wait is idempotent.
	if _, err := futures[0].Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitError(t *testing.T) {
	ix, _ := buildIndex(t, 100, 8, 2)
	e := New(ix, Config{Workers: 2})
	if _, err := e.Submit([]float64{1, 2}, 3).Wait(); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
	if _, err := e.BatchSearch([][]float64{{1, 2}}, 3); err == nil {
		t.Fatal("expected batch error")
	}
	if st := e.Stats(); st.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", st.Errors)
	}
}

func TestCacheHitAndInvalidation(t *testing.T) {
	ix, queries := buildIndex(t, 400, 16, 4)
	e := New(ix, Config{Workers: 2, CacheSize: 64})
	q := queries[0]

	first, err := e.Submit(q, 5).Wait()
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(q, 5).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(first, second) {
		t.Fatal("cached answer differs from original")
	}
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
	// A cache hit did no I/O: the work counters must reflect one search.
	if st := e.Stats(); st.PageReads != int64(first.Stats.PageReads) {
		t.Fatalf("PageReads = %d after a cache hit, want %d (no double count)",
			st.PageReads, first.Stats.PageReads)
	}

	// A mutation bumps the index version: the stale entry must not be
	// served. Delete the current nearest neighbour and search again.
	top := first.Items[0].ID
	if !ix.Delete(top) {
		t.Fatalf("Delete(%d) reported not live", top)
	}
	third, err := e.Submit(q, 5).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range third.Items {
		if it.ID == top {
			t.Fatalf("deleted point %d still in post-mutation answer", top)
		}
	}
	if st := e.Stats(); st.CacheHits != 1 {
		t.Fatalf("CacheHits after mutation = %d, want still 1", st.CacheHits)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	q1, q2, q3 := []float64{1}, []float64{2}, []float64{3}
	c.put(0, 1, q1, core.Result{})
	c.put(0, 1, q2, core.Result{})
	c.put(0, 1, q3, core.Result{}) // evicts q1
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if _, ok := c.get(0, 1, q1); ok {
		t.Fatal("q1 should have been evicted")
	}
	if _, ok := c.get(0, 1, q2); !ok {
		t.Fatal("q2 should be cached")
	}
	// Different k or version must miss even for the same query.
	if _, ok := c.get(0, 2, q2); ok {
		t.Fatal("k=2 lookup must miss")
	}
	if _, ok := c.get(1, 1, q2); ok {
		t.Fatal("version=1 lookup must miss")
	}
}

func TestStats(t *testing.T) {
	ix, queries := buildIndex(t, 300, 16, 4)
	e := New(ix, Config{Workers: 4})
	if _, err := e.BatchSearch(queries, 5); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Queries != int64(len(queries)) {
		t.Fatalf("Queries = %d, want %d", st.Queries, len(queries))
	}
	if st.QPS <= 0 {
		t.Fatalf("QPS = %v, want > 0", st.QPS)
	}
	if st.Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", st.Wall)
	}
	if st.P50 < 0 || st.P99 < st.P50 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v", st.P50, st.P99)
	}
	if st.PageReads <= 0 || st.Candidates <= 0 {
		t.Fatalf("work counters empty: %+v", st)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	// Nearest-rank: with few samples the worst observation IS the p99, so
	// a single slow outlier can never hide below the reported tail.
	if got := percentile(sorted, 0.99); got != 10 {
		t.Fatalf("p99 = %v, want 10", got)
	}
	if got := percentile(sorted, 1.0); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	if got := percentile(sorted[:1], 0.01); got != 1 {
		t.Fatalf("p1 of one sample = %v, want 1", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
}

// TestMutationRouting drives Insert/Delete through the engine: the
// mutations must land on the backend, count in the stats, and invalidate
// cached results via the version key.
func TestMutationRouting(t *testing.T) {
	ix, queries := buildIndex(t, 300, 16, 2)
	e := New(ix, Config{Workers: 2, CacheSize: 64})
	q := queries[0]

	before, err := e.Submit(q, 5).Wait()
	if err != nil {
		t.Fatal(err)
	}

	id, err := e.Insert(append([]float64(nil), q...))
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 {
		t.Fatalf("insert assigned id %d, want 300", id)
	}
	after, err := e.Submit(q, 5).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if after.Items[0].ID != id || after.Items[0].Score != 0 {
		t.Fatalf("inserted point not served (stale cache?): %+v", after.Items)
	}
	if sameAnswer(before, after) {
		t.Fatal("mutation did not invalidate the cached result")
	}

	ok, err := e.Delete(id)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, err := e.Delete(id); err != nil || ok {
		t.Fatalf("double delete must be a no-op: %v %v", ok, err)
	}
	gone, err := e.Submit(q, 5).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range gone.Items {
		if it.ID == id {
			t.Fatal("deleted point still served")
		}
	}
	if st := e.Stats(); st.Mutations != 2 {
		t.Fatalf("stats count %d mutations, want 2", st.Mutations)
	}
}

// readOnlyBackend implements only Backend.
type readOnlyBackend struct{ Backend }

func TestMutationRoutingReadOnly(t *testing.T) {
	ix, _ := buildIndex(t, 50, 8, 2)
	e := New(readOnlyBackend{ix}, Config{Workers: 1, CacheSize: -1})
	if _, err := e.Insert([]float64{1}); err != ErrNoMutate {
		t.Fatalf("want ErrNoMutate, got %v", err)
	}
	if _, err := e.Delete(0); err != ErrNoMutate {
		t.Fatalf("want ErrNoMutate, got %v", err)
	}
}

// TestLatencyReservoirBounded pushes far more samples than the reservoir
// holds and checks memory stays capped while the sample keeps admitting
// late arrivals (uniform over the whole run, not a frozen prefix).
func TestLatencyReservoirBounded(t *testing.T) {
	e := New(readOnlyBackend{}, Config{Workers: 1, CacheSize: -1})
	for i := 0; i < 3*maxLatSamples; i++ {
		e.record(core.Result{}, false, nil, time.Duration(i))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.lat) != maxLatSamples {
		t.Fatalf("reservoir holds %d samples, want exactly %d", len(e.lat), maxLatSamples)
	}
	if e.latSeen != 3*maxLatSamples {
		t.Fatalf("latSeen %d, want %d", e.latSeen, 3*maxLatSamples)
	}
	// With uniform sampling about 2/3 of slots come from the post-cap
	// tail; a frozen prefix would keep zero.
	late := 0
	for _, v := range e.lat {
		if v >= time.Duration(maxLatSamples) {
			late++
		}
	}
	if late < maxLatSamples/3 {
		t.Fatalf("only %d/%d reservoir slots postdate the cap — sampling is not uniform", late, maxLatSamples)
	}
}
