package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
)

// TestShardedConcurrentMutationOracle is the -race property test of the
// ISSUE: sharded scatter-gather answers stay exactly equal to the
// brute-force oracle while Insert/Delete interleave on other goroutines.
//
// Same construction as the engine's race test: queries live in a near
// cluster, the mutator only touches a far cluster, so the exact top-k is
// invariant across every reachable state even though a scatter-gather
// query is not a global snapshot — each individual mutation is confined
// to one shard and lands atomically, and far points can never enter any
// query's top-k.
func TestShardedConcurrentMutationOracle(t *testing.T) {
	const (
		nNear  = 240
		nFar   = 80
		d      = 10
		k      = 6
		shards = 4
	)
	searchers, rounds, mutations := 5, 10, 240
	if testing.Short() {
		searchers, rounds, mutations = 3, 4, 60
	}

	rng := rand.New(rand.NewSource(31))
	points := make([][]float64, 0, nNear+nFar)
	for i := 0; i < nNear; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		points = append(points, p)
	}
	for i := 0; i < nFar; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = 1000 + rng.Float64()
		}
		points = append(points, p)
	}

	div := bregman.SquaredEuclidean{}
	sx, err := Build(div, points, Options{Shards: shards,
		Core: core.Options{M: 2, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}

	queries := make([][]float64, 12)
	oracles := make([][]float64, len(queries)) // distances only sanity below
	knn := make([][]int, len(queries))
	for i := range queries {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		queries[i] = q
		items := scan.KNN(div, points, q, k)
		if items[k-1].Score > float64(d) {
			t.Fatalf("oracle %d reaches the far cluster; construction broken", i)
		}
		for _, it := range items {
			knn[i] = append(knn[i], it.ID)
			oracles[i] = append(oracles[i], it.Score)
		}
	}

	// alive tracks what the mutator left behind, for the quiesced check.
	alive := map[int][]float64{}
	for id, p := range points {
		alive[id] = p
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(77))
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
				id, err := sx.Insert(p)
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				farIDs = append(farIDs, id)
				alive[id] = p
			} else {
				pick := mrng.Intn(len(farIDs))
				if !sx.Delete(farIDs[pick]) {
					t.Errorf("Delete(%d) = false", farIDs[pick])
					return
				}
				delete(alive, farIDs[pick])
				farIDs = append(farIDs[:pick], farIDs[pick+1:]...)
			}
		}
	}()

	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(useBatch bool) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var results []core.Result
				var err error
				if useBatch {
					results, err = batchSearch(sx, queries, k)
				} else {
					results = make([]core.Result, len(queries))
					for qi, q := range queries {
						results[qi], err = sx.Search(q, k)
						if err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				for qi, res := range results {
					ids := make([]int, 0, k)
					scores := make([]float64, 0, k)
					for _, it := range res.Items {
						ids = append(ids, it.ID)
						scores = append(scores, it.Score)
					}
					if !reflect.DeepEqual(ids, knn[qi]) || !reflect.DeepEqual(scores, oracles[qi]) {
						t.Errorf("query %d: concurrent sharded answer diverged from oracle\ngot  %v %v\nwant %v %v",
							qi, ids, scores, knn[qi], oracles[qi])
						return
					}
				}
			}
		}(s%2 == 0)
	}
	wg.Wait()

	// Quiesced: with mutations settled, a range query over everything must
	// return exactly the live set, and a far-reaching kNN must match a
	// brute-force scan over it (global ids and distances).
	if sx.Live() != len(alive) {
		t.Fatalf("Live() = %d, mutator left %d points", sx.Live(), len(alive))
	}
	items, _, err := rangeSearch(sx, queries[0], 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(alive) {
		t.Fatalf("range over everything returned %d items, want %d live", len(items), len(alive))
	}
	for _, it := range items {
		p, ok := alive[it.ID]
		if !ok {
			t.Fatalf("range returned dead or unknown id %d", it.ID)
		}
		if want := kernel.For(div).Distance(p, queries[0]); it.Score != want {
			t.Fatalf("id %d: range distance %v, brute force %v", it.ID, it.Score, want)
		}
	}
}
