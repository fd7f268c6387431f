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
// submissions, one SubmitQuery per shape, over an in-memory, a sharded
// and a durable Index: the engine once sniffed its backend for
// RangeSearch/SearchApprox methods whose signatures the public wrappers
// never had, so range submissions failed with "backend does not support
// range queries" on every index kind.
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

	const k = 6
	for name, ix := range map[string]*brepartition.Index{"Build": idx, "BuildSharded": sx, "BuildDurable": dx} {
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
			got, err := eng.SubmitQuery(brepartition.Query{Vec: q, Range: true, Radius: r}).Wait()
			if err != nil {
				t.Fatalf("%s: range SubmitQuery: %v", name, err)
			}
			if len(want) < 2*k || !reflect.DeepEqual(brepartition.Neighbors(got), want) {
				t.Fatalf("%s: range SubmitQuery != RangeSearch\ngot  %v\nwant %v", name, brepartition.Neighbors(got), want)
			}

			approx, err := eng.SubmitQuery(brepartition.Query{Vec: q, K: k, Approx: true, P: 1}).Wait()
			if err != nil {
				t.Fatalf("%s: approximate SubmitQuery: %v", name, err)
			}
			if !reflect.DeepEqual(approx.Items, exact.Items[:k]) {
				t.Fatalf("%s: approximate SubmitQuery(p=1) != Search\ngot  %v\nwant %v", name, approx.Items, exact.Items[:k])
			}
		}
	}
}

// TestEngineLifecycle exercises the persistent engine surface: submit /
// await, batch, statistics, and a mutation showing in the next answer.
func TestEngineLifecycle(t *testing.T) {
	idx, queries := apiTestIndex(t)
	eng := brepartition.NewEngine(idx, &brepartition.EngineOptions{Workers: 4})

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
	st := eng.Stats()
	if st.Queries != int64(1+len(queries)) {
		t.Fatalf("Queries = %d, want %d", st.Queries, 1+len(queries))
	}
	if st.QPS <= 0 || st.P99 < st.P50 {
		t.Fatalf("implausible stats: %+v", st)
	}

	// A mutation advances Version and shows in the next answer.
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
