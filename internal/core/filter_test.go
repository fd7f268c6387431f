package core

import (
	"math/rand"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/scan"
)

// searchFilter is the filtered Query shape the tests below exercise.
func searchFilter(ix *Index, q []float64, k int, keep func(id int) bool) (Result, error) {
	return ix.Query(nil, &Query{Vec: q, K: k, Keep: keep})
}

// TestSearchFilterOracle pins filtered search bit-identical to brute force
// restricted to the same predicate, across divergences, selectivities, and
// k values — including k larger than the match count.
func TestSearchFilterOracle(t *testing.T) {
	divs := []bregman.Divergence{bregman.SquaredEuclidean{}, bregman.ItakuraSaito{}, bregman.GeneralizedKL{}}
	for _, div := range divs {
		t.Run(div.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			const n, d = 400, 12
			points := make([][]float64, n)
			for i := range points {
				p := make([]float64, d)
				for j := range p {
					p[j] = 0.1 + rng.Float64()
				}
				points[i] = p
			}
			ix, err := Build(div, points, Options{M: 3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, mod := range []int{2, 7, 50, 399} {
				keep := func(id int) bool { return id%mod == 0 }
				for _, k := range []int{1, 5, 25} {
					q := make([]float64, d)
					for j := range q {
						q[j] = 0.1 + rng.Float64()
					}
					got, err := searchFilter(ix, q, k, keep)
					if err != nil {
						t.Fatal(err)
					}
					want := scan.KNNFilter(div, points, q, k, keep)
					if len(got.Items) != len(want) {
						t.Fatalf("mod=%d k=%d: got %d items, want %d", mod, k, len(got.Items), len(want))
					}
					for i := range want {
						if got.Items[i] != want[i] {
							t.Fatalf("mod=%d k=%d item %d: got %+v, want %+v", mod, k, i, got.Items[i], want[i])
						}
					}
				}
			}
			// Zero matches answers empty, not an error.
			q := make([]float64, d)
			for j := range q {
				q[j] = 0.5
			}
			res, err := searchFilter(ix, q, 3, func(int) bool { return false })
			if err != nil || len(res.Items) != 0 {
				t.Fatalf("zero-match: items=%d err=%v", len(res.Items), err)
			}
		})
	}
}

// TestSearchFilterDeleted pins that tombstoned points never surface in a
// filtered answer even when the predicate admits them.
func TestSearchFilterDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d = 200, 6
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.1 + rng.Float64()
		}
		points[i] = p
	}
	ix, err := Build(bregman.SquaredEuclidean{}, points, Options{M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id += 3 {
		ix.Delete(id)
	}
	keep := func(id int) bool { return id%2 == 0 }
	oracle := func(id int) bool { return id%2 == 0 && id%3 != 0 }
	q := make([]float64, d)
	for j := range q {
		q[j] = 0.1 + rng.Float64()
	}
	got, err := searchFilter(ix, q, 10, keep)
	if err != nil {
		t.Fatal(err)
	}
	want := scan.KNNFilter(bregman.SquaredEuclidean{}, points, q, 10, oracle)
	if len(got.Items) != len(want) {
		t.Fatalf("got %d items, want %d", len(got.Items), len(want))
	}
	for i := range want {
		if got.Items[i] != want[i] {
			t.Fatalf("item %d: got %+v, want %+v", i, got.Items[i], want[i])
		}
	}
}
