package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

// TestConcurrentBatchWithMutation is the -race stress test: BatchSearch
// runs concurrently with interleaved Insert/Delete, and every result is
// checked against a brute-force oracle valid for the live snapshot the
// search locked.
//
// Construction makes the oracle snapshot-independent: queries sit inside a
// "near" cluster, while the mutator only inserts and deletes points of a
// "far" cluster whose distance to every query exceeds any near-cluster
// distance by orders of magnitude. The exact top-k of every query is then
// the same in every reachable snapshot, so each concurrent search — which
// holds the index's shared lock for its whole duration and therefore sees
// one consistent state — must return exactly the precomputed answer. The
// race detector meanwhile checks that no search observes a torn mutation.
func TestConcurrentBatchWithMutation(t *testing.T) {
	const (
		nNear = 300
		nFar  = 100
		d     = 12
		k     = 8
	)
	searchers, rounds, mutations := 6, 12, 300
	if testing.Short() {
		searchers, rounds, mutations = 3, 4, 60
	}

	rng := rand.New(rand.NewSource(11))
	points := make([][]float64, 0, nNear+nFar)
	for i := 0; i < nNear; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() // near cluster: [0, 1)^d
		}
		points = append(points, p)
	}
	farPoint := func() []float64 {
		p := make([]float64, d)
		for j := range p {
			p[j] = 1000 + rng.Float64() // far cluster: distance ≥ ~999² per dim
		}
		return p
	}
	for i := 0; i < nFar; i++ {
		points = append(points, farPoint())
	}

	div := bregman.SquaredEuclidean{}
	ix, err := core.Build(div, points, core.Options{M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Oracles: exact top-k over the initial points. Far points can never
	// crack the top-k (k < nNear), so these stay correct under every
	// far-cluster mutation.
	queries := make([][]float64, 16)
	oracles := make([][]topk.Item, len(queries))
	for i := range queries {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		queries[i] = q
		oracles[i] = scan.KNN(div, points, q, k)
		if oracles[i][k-1].Score > float64(d) {
			t.Fatalf("oracle %d reaches into the far cluster; test construction broken", i)
		}
	}

	e := New(ix, Config{Workers: 4})
	var wg sync.WaitGroup

	// Mutator: inserts fresh far points and deletes random far ones (both
	// initial far ids and its own inserts).
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(23))
		farIDs := make([]int, 0, nFar+mutations)
		for id := nNear; id < nNear+nFar; id++ {
			farIDs = append(farIDs, id)
		}
		for i := 0; i < mutations; i++ {
			if mrng.Intn(2) == 0 || len(farIDs) == 0 {
				p := make([]float64, d)
				for j := range p {
					p[j] = 1000 + mrng.Float64()
				}
				id, err := ix.Insert(p)
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				farIDs = append(farIDs, id)
			} else {
				pick := mrng.Intn(len(farIDs))
				ix.Delete(farIDs[pick])
				farIDs = append(farIDs[:pick], farIDs[pick+1:]...)
			}
		}
	}()

	// Searchers: every batch answer must equal the snapshot-independent
	// oracle, regardless of how the mutator interleaves.
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				results, err := e.BatchSearch(queries, k)
				if err != nil {
					t.Errorf("BatchSearch: %v", err)
					return
				}
				for qi, res := range results {
					if !reflect.DeepEqual(res.Items, oracles[qi]) {
						t.Errorf("query %d: concurrent answer diverged from oracle\ngot  %v\nwant %v",
							qi, res.Items, oracles[qi])
						return
					}
				}
			}
		}(int64(s))
	}
	wg.Wait()

	// Quiesced check: with mutations settled, the index must agree with a
	// fresh brute-force scan over the live points (including everything
	// the mutator inserted, minus everything it deleted).
	live := make([][]float64, ix.N())
	idOf := make([]int, 0, ix.N())
	sel := func(q []float64) []topk.Item {
		s := topk.New(k)
		for _, id := range idOf {
			s.Offer(id, kernel.For(div).Distance(live[id], q))
		}
		return s.Items()
	}
	for id := 0; id < ix.N(); id++ {
		if !ix.Deleted(id) {
			live[id] = ix.Points[id]
			idOf = append(idOf, id)
		}
	}
	for qi, q := range queries {
		want := sel(q)
		res, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Items, want) {
			t.Fatalf("quiesced query %d: index answer %v, brute force %v", qi, res.Items, want)
		}
	}
}

// TestConcurrentSearchOnly hammers the read path alone (no mutation) so
// the race detector can vet the shared disk-store accounting.
func TestConcurrentSearchOnly(t *testing.T) {
	ix, queries := buildIndex(t, 400, 16, 4)
	e := New(ix, Config{Workers: 8})
	var wg sync.WaitGroup
	for s := 0; s < 6; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.BatchSearch(queries, 5); err != nil {
				t.Errorf("BatchSearch: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := e.Stats().Queries; got != int64(6*len(queries)) {
		t.Fatalf("Queries = %d, want %d", got, 6*len(queries))
	}
}
