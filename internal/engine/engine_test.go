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
	// Duplicate some queries: a repeat is searched again, not shared.
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
// mutations must land on the backend, count in the stats, and show in the
// next answer.
func TestMutationRouting(t *testing.T) {
	ix, queries := buildIndex(t, 300, 16, 2)
	e := New(ix, Config{Workers: 2})
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
		t.Fatalf("inserted point not served: %+v", after.Items)
	}
	if sameAnswer(before, after) {
		t.Fatal("answer unchanged by the insert")
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
	e := New(readOnlyBackend{ix}, Config{Workers: 1})
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
	e := New(readOnlyBackend{}, Config{Workers: 1})
	for i := 0; i < 3*maxLatSamples; i++ {
		e.record(core.Result{}, nil, time.Duration(i))
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
