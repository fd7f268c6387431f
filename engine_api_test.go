package brepartition_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"brepartition"
)

// apiTestPoints returns the deterministic dataset shared by the public
// API tests (and their sharded variants).
func apiTestPoints() [][]float64 {
	rng := rand.New(rand.NewSource(99))
	const n, d = 500, 20
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.5 + 4*rng.Float64()
		}
		points[i] = p
	}
	return points
}

func apiTestIndex(t testing.TB) (*brepartition.Index, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(98))
	const d = 20
	points := apiTestPoints()
	idx, err := brepartition.Build(brepartition.ItakuraSaito(), points, &brepartition.Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 20)
	for i := range queries {
		q := make([]float64, d)
		for j := range q {
			q[j] = 0.5 + 4*rng.Float64()
		}
		queries[i] = q
	}
	return idx, queries
}

// TestBatchSearchMatchesSequential asserts the batch engine's core
// contract: for any worker count, BatchSearch returns exactly what a
// sequential Search loop returns — same ids, same distances, bit for bit.
func TestBatchSearchMatchesSequential(t *testing.T) {
	idx, queries := apiTestIndex(t)
	const k = 9

	want := make([][]brepartition.Neighbor, len(queries))
	for i, q := range queries {
		res, err := idx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = brepartition.Neighbors(res)
	}

	for _, workers := range []int{1, 4, 8} {
		results, err := idx.BatchSearch(queries, k, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if got := brepartition.Neighbors(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("workers=%d query %d: batch answer diverges from sequential Search\ngot  %v\nwant %v",
					workers, i, got, want[i])
			}
		}
	}
}

// TestEngineSubmitRangeAndApprox pins the public Engine's non-exact
// submissions on every public index kind: before ISSUE 23 the engine
// sniffed its backend for RangeSearch/SearchApprox methods whose
// signatures the public wrappers never had, so SubmitRange failed with
// "backend does not support range queries" on all three.
func TestEngineSubmitRangeAndApprox(t *testing.T) {
	points := apiTestPoints()
	idx, queries := apiTestIndex(t)
	sx, err := brepartition.BuildSharded(brepartition.ItakuraSaito(), points, 3, &brepartition.Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	dx, err := brepartition.BuildDurable(brepartition.ItakuraSaito(), points, filepath.Join(t.TempDir(), "durable"),
		&brepartition.DurableOptions{Shards: 3, Core: brepartition.Options{M: 4}, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dx.Close()

	type index interface {
		brepartition.Backend
		Search(q []float64, k int) (brepartition.Result, error)
		RangeSearch(q []float64, r float64) ([]brepartition.Neighbor, brepartition.SearchStats, error)
	}
	const k = 6
	for name, ix := range map[string]index{"Index": idx, "ShardedIndex": sx, "DurableIndex": dx} {
		eng := brepartition.NewEngine(ix, nil)
		for _, q := range queries[:4] {
			exact, err := ix.Search(q, 2*k)
			if err != nil {
				t.Fatal(err)
			}
			r := exact.Items[len(exact.Items)-1].Score
			want, _, err := ix.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SubmitRange(q, r).Wait()
			if err != nil {
				t.Fatalf("%s: SubmitRange: %v", name, err)
			}
			if len(want) < 2*k || !reflect.DeepEqual(brepartition.Neighbors(got), want) {
				t.Fatalf("%s: SubmitRange != RangeSearch\ngot  %v\nwant %v", name, brepartition.Neighbors(got), want)
			}

			approx, err := eng.SubmitApprox(q, k, 1).Wait()
			if err != nil {
				t.Fatalf("%s: SubmitApprox: %v", name, err)
			}
			if !reflect.DeepEqual(approx.Items, exact.Items[:k]) {
				t.Fatalf("%s: SubmitApprox(p=1) != Search\ngot  %v\nwant %v", name, approx.Items, exact.Items[:k])
			}
		}
	}
}

// TestEngineLifecycle exercises the persistent engine surface: submit /
// await, batch, cache reuse, version-based invalidation, and statistics.
func TestEngineLifecycle(t *testing.T) {
	idx, queries := apiTestIndex(t)
	eng := brepartition.NewEngine(idx, &brepartition.EngineOptions{Workers: 4, CacheSize: 128})

	fut := eng.Submit(queries[0], 5)
	res, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 5 {
		t.Fatalf("got %d items, want 5", len(res.Items))
	}

	if _, err := eng.BatchSearch(queries, 5); err != nil {
		t.Fatal(err)
	}
	// queries[0] was already answered: the batch must have hit the cache.
	st := eng.Stats()
	if st.CacheHits < 1 {
		t.Fatalf("CacheHits = %d, want ≥ 1", st.CacheHits)
	}
	if st.Queries != int64(1+len(queries)) {
		t.Fatalf("Queries = %d, want %d", st.Queries, 1+len(queries))
	}
	if st.QPS <= 0 || st.P99 < st.P50 {
		t.Fatalf("implausible stats: %+v", st)
	}

	// Mutations invalidate cached answers via the version counter.
	v0 := idx.Version()
	id, err := idx.Insert(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if idx.Version() == v0 {
		t.Fatal("Version did not advance on Insert")
	}
	res, err = eng.Submit(queries[0], 5).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].ID != id || res.Items[0].Score != 0 {
		t.Fatalf("after inserting the query point, expected it first with distance 0; got %+v", res.Items[0])
	}
}
