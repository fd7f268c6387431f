package shard

import (
	"math/rand"
	"path/filepath"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/scan"
)

// TestSearchFilterOracle pins sharded filtered search bit-identical to
// brute force with the same predicate, across shard counts, under
// concurrent inserts probing the l2g capture.
func TestSearchFilterOracle(t *testing.T) {
	div := bregman.GeneralizedKL{}
	rng := rand.New(rand.NewSource(11))
	const n, d = 500, 8
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	for _, shards := range []int{1, 3, 7} {
		ix, err := Build(div, points, Options{Shards: shards, Core: core.Options{M: 3}})
		if err != nil {
			t.Fatal(err)
		}
		for _, mod := range []int{2, 9, 100} {
			keep := func(g int) bool { return g%mod == 0 }
			q := make([]float64, d)
			for j := range q {
				q[j] = 0.1 + rng.Float64()
			}
			got, err := searchFilter(ix, q, 7, keep)
			if err != nil {
				t.Fatal(err)
			}
			want := scan.KNNFilter(div, points, q, 7, keep)
			if len(got.Items) != len(want) {
				t.Fatalf("shards=%d mod=%d: got %d items, want %d", shards, mod, len(got.Items), len(want))
			}
			for i := range want {
				if got.Items[i] != want[i] {
					t.Fatalf("shards=%d mod=%d item %d: got %+v want %+v", shards, mod, i, got.Items[i], want[i])
				}
			}
		}
	}
}

// TestSearchFilterConcurrentInsert races filtered searches against inserts;
// the l2g slice-header capture must keep every translation in bounds (run
// under -race).
func TestSearchFilterConcurrentInsert(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	rng := rand.New(rand.NewSource(5))
	const n, d = 200, 4
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	ix, err := Build(div, points, Options{Shards: 4, Core: core.Options{M: 2}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ins := rand.New(rand.NewSource(9))
		for i := 0; i < 300; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = 0.1 + ins.Float64()
			}
			if _, err := ix.Insert(p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	keep := func(g int) bool { return g%3 == 0 }
	q := make([]float64, d)
	for j := range q {
		q[j] = 0.5
	}
	for i := 0; i < 200; i++ {
		res, err := searchFilter(ix, q, 5, keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.Items {
			if it.ID%3 != 0 {
				t.Fatalf("filtered answer leaked id %d", it.ID)
			}
		}
	}
	<-done
}

// TestEmptyBuildInsertReopen pins the empty-index lifecycle a freshly
// created collection relies on: build over zero points with a declared
// Dim, insert, search, snapshot, reopen with Dim, and keep mutating.
func TestEmptyBuildInsertReopen(t *testing.T) {
	div := bregman.ItakuraSaito{}
	if _, err := Build(div, nil, Options{Shards: 2}); err == nil {
		t.Fatal("empty build without Dim should fail")
	}
	ix, err := Build(div, nil, Options{Shards: 2, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Dim() != 3 || ix.N() != 0 {
		t.Fatalf("dim=%d n=%d", ix.Dim(), ix.N())
	}
	// Search on a totally empty index answers empty.
	if res, err := ix.Search([]float64{1, 2, 3}, 4); err != nil || len(res.Items) != 0 {
		t.Fatalf("empty search: %v %v", res.Items, err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ix.Insert([]float64{1 + float64(i), 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Insert([]float64{1, 2}); err == nil {
		t.Fatal("dim-mismatched insert should fail")
	}
	res, err := ix.Search([]float64{1, 2, 3}, 3)
	if err != nil || len(res.Items) != 3 {
		t.Fatalf("search after inserts: %v %v", res.Items, err)
	}

	dir := filepath.Join(t.TempDir(), "snap")
	if err := ix.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDir(dir, Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != 3 || back.N() != 10 {
		t.Fatalf("reopened dim=%d n=%d", back.Dim(), back.N())
	}
	if _, err := back.Insert([]float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
}
