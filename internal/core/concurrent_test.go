package core

import (
	"sync"
	"testing"

	"brepartition/internal/dataset"
)

// TestConcurrentSearchInsertDelete drives every locked entry point of the
// index from concurrent goroutines. Run under -race it proves the RWMutex
// discipline: searches, range queries, persistence snapshots, and
// mutations may interleave freely without a torn read. (The engine package
// additionally checks result *correctness* under concurrency against an
// oracle; this test is about the core lock coverage, including methods the
// engine does not call.)
func TestConcurrentSearchInsertDelete(t *testing.T) {
	ix, ds := buildSmall(t, "l2", 4)
	queries := dataset.SampleQueries(ds, 8, 9)
	iters := 30
	if testing.Short() {
		iters = 8
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[i%len(queries)]
				if _, err := ix.Search(q, 5); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				if _, err := ix.Query(nil, &Query{Vec: q, K: 5, Keep: func(id int) bool { return id%2 == 0 }}); err != nil {
					t.Errorf("filtered Query: %v", err)
					return
				}
				if _, _, err := ix.RangeSearch(q, 1.0); err != nil {
					t.Errorf("RangeSearch: %v", err)
					return
				}
				if _, err := ix.Bounds(q, 5); err != nil {
					t.Errorf("Bounds: %v", err)
					return
				}
				_ = ix.Live()
				_ = ix.N()
				_ = ix.Dim()
				_ = ix.M()
				_ = ix.Version()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			id, err := ix.Insert(ds.Points[i%len(ds.Points)])
			if err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			if i%2 == 0 {
				ix.Delete(id)
			}
		}
	}()

	snapshot := t.TempDir() + "/snap.idx"
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := ix.WriteFile(snapshot); err != nil {
				t.Errorf("WriteFile: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if v := ix.Version(); v == 0 {
		t.Fatal("Version did not advance across mutations")
	}
}
