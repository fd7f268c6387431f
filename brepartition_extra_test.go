package brepartition_test

import (
	"math"
	"path/filepath"
	"testing"

	"brepartition"
	"brepartition/internal/dataset"
)

func TestPublicAPIRangeSearch(t *testing.T) {
	idx, ds := buildAPIIndex(t)
	div, _ := brepartition.DivergenceByName(ds.Divergence)
	q := ds.Points[8]
	got, stats, err := idx.RangeSearch(q, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against a scan.
	var want int
	for _, p := range ds.Points {
		if brepartition.Distance(div, p, q) <= 3.0 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("got %d in range, want %d", len(got), want)
	}
	if len(got) > 0 && stats.PageReads == 0 {
		t.Fatal("no I/O recorded")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Fatal("not sorted")
		}
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	idx, ds := buildAPIIndex(t)
	path := filepath.Join(t.TempDir(), "index.bpi")
	if err := idx.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := brepartition.ReadIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.M() != idx.M() || loaded.N() != idx.N() {
		t.Fatal("geometry changed across persistence")
	}
	for _, q := range dataset.SampleQueries(ds, 3, 17) {
		a, err := idx.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Search(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Items {
			if a.Items[i].ID != b.Items[i].ID ||
				math.Abs(a.Items[i].Score-b.Items[i].Score) > 1e-12 {
				t.Fatalf("loaded index diverges at %d", i)
			}
		}
	}
}

func TestPublicAPILeafAndPageOptions(t *testing.T) {
	spec, _ := dataset.PaperSpec("audio", 0.01)
	spec.N = 300
	spec.Dim = 16
	ds := dataset.MustGenerate(spec)
	div, _ := brepartition.DivergenceByName("ed")
	idx, err := brepartition.Build(div, ds.Points, &brepartition.Options{
		M: 4, LeafSize: 8, PageSize: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(ds.Points[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	want := brepartition.BruteForce(div, ds.Points, ds.Points[0], 5)
	for i := range want {
		if res.Items[i].ID != want[i].ID {
			t.Fatal("custom leaf/page options broke exactness")
		}
	}
}
