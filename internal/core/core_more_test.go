package core

import (
	"errors"
	"math"
	"testing"

	"brepartition/internal/approx"
	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/dataset"
	"brepartition/internal/disk"
	"brepartition/internal/partition"
	"brepartition/internal/scan"
)

func TestBuildErrors(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	if _, err := Build(div, nil, Options{}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Build(div, [][]float64{{1, 2}, {1}}, Options{M: 1}); err == nil {
		t.Fatal("ragged points accepted")
	}
	isd := bregman.ItakuraSaito{}
	if _, err := Build(isd, [][]float64{{1, 2}, {1, -3}}, Options{M: 1}); !errors.Is(err, bregman.ErrDomain) {
		t.Fatalf("out-of-domain: %v", err)
	}
}

func TestSearchErrors(t *testing.T) {
	ix, _ := buildSmall(t, "ed", 3)
	q := make([]float64, ix.Dim())
	if _, err := ix.Search(q, 0); !errors.Is(err, ErrK) {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := ix.Search([]float64{1}, 5); !errors.Is(err, ErrDim) {
		t.Fatalf("dim: %v", err)
	}
	if _, err := ix.SearchApprox(q, 5, 0); !errors.Is(err, approx.ErrGuarantee) {
		t.Fatalf("p=0: %v", err)
	}
}

func TestQueryDomainChecked(t *testing.T) {
	ix, _ := buildSmall(t, "isd", 3)
	q := make([]float64, ix.Dim())
	q[0] = -1 // outside IS domain
	for j := 1; j < len(q); j++ {
		q[j] = 1
	}
	if _, err := ix.Search(q, 5); !errors.Is(err, bregman.ErrDomain) {
		t.Fatalf("want domain error, got %v", err)
	}
}

func TestMClampedToDim(t *testing.T) {
	ix, _ := buildSmall(t, "ed", 999) // M > d clamps to d
	if ix.M() != ix.Dim() {
		t.Fatalf("M=%d, want %d", ix.M(), ix.Dim())
	}
}

func TestPCCPVsEqualBothExact(t *testing.T) {
	spec := dataset.Spec{Name: "t", N: 400, Dim: 20, Divergence: "ed",
		Clusters: 4, Correlation: 0.7, Seed: 5}
	ds := dataset.MustGenerate(spec)
	div, _ := bregman.ByName("ed")
	for _, disable := range []bool{false, true} {
		opts := smallOptions(4)
		opts.DisablePCCP = disable
		ix, err := Build(div, ds.Points, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := partition.Validate(ix.Parts, 20); err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		q := ds.Points[7]
		res, err := ix.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.KNN(div, ds.Points, q, 5)
		for i := range want {
			if math.Abs(res.Items[i].Score-want[i].Score) > 1e-9*(1+want[i].Score) {
				t.Fatalf("disable=%v: mismatch at %d", disable, i)
			}
		}
	}
}

func TestKGreaterThanN(t *testing.T) {
	spec := dataset.Spec{Name: "t", N: 30, Dim: 8, Divergence: "ed", Clusters: 2, Seed: 6}
	ds := dataset.MustGenerate(spec)
	div, _ := bregman.ByName("ed")
	ix, err := Build(div, ds.Points, smallOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(ds.Points[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 30 {
		t.Fatalf("k>n should clamp: got %d", len(res.Items))
	}
}

func TestStatsPopulated(t *testing.T) {
	ix, ds := buildSmall(t, "ed", 4)
	res, err := ix.Search(ds.Points[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Candidates < 10 {
		t.Fatalf("candidates = %d", st.Candidates)
	}
	if st.PageReads <= 0 {
		t.Fatal("no page reads recorded")
	}
	if st.BoundTotal <= 0 {
		t.Fatal("bound not recorded")
	}
	if st.ApproxC != 1 {
		t.Fatalf("exact search should record c=1, got %g", st.ApproxC)
	}
	if st.DistanceComps < st.Candidates {
		t.Fatal("refinement distances missing from stats")
	}
}

func TestBoundsAccessor(t *testing.T) {
	ix, ds := buildSmall(t, "ed", 4)
	b, err := ix.Bounds(ds.Points[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Radii) != ix.M() {
		t.Fatalf("radii count %d != M %d", len(b.Radii), ix.M())
	}
	var sum float64
	for _, r := range b.Radii {
		sum += r
	}
	if math.Abs(sum-b.Total) > 1e-9*(1+b.Total) {
		t.Fatalf("Σ radii %g != total %g", sum, b.Total)
	}
	if _, err := ix.Bounds([]float64{1}, 5); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// TestApproxRecallProbability: over many queries, ABP at p=0.9 should
// achieve high average recall of the exact kNN (the probabilistic
// guarantee, measured loosely on a small workload).
func TestApproxRecallProbability(t *testing.T) {
	ix, ds := buildSmall(t, "ed", 4)
	div := ix.Div
	queries := dataset.SampleQueries(ds, 10, 77)
	k := 10
	var recall float64
	for _, q := range queries {
		appr, err := ix.SearchApprox(q, k, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		exact := scan.KNN(div, ds.Points, q, k)
		inExact := map[int]bool{}
		for _, it := range exact {
			inExact[it.ID] = true
		}
		hit := 0
		for _, it := range appr.Items {
			if inExact[it.ID] {
				hit++
			}
		}
		recall += float64(hit) / float64(k)
	}
	recall /= float64(len(queries))
	if recall < 0.6 {
		t.Fatalf("p=0.9 average recall = %.2f, want ≥ 0.6", recall)
	}
}

func TestApproxTightensWithLowerP(t *testing.T) {
	ix, ds := buildSmall(t, "ed", 4)
	q := ds.Points[11]
	var prevC = 1.1
	for _, p := range []float64{0.95, 0.8, 0.6} {
		res, err := ix.SearchApprox(q, 10, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ApproxC > prevC+1e-9 {
			t.Fatalf("c should shrink as p drops: c(%g)=%g after %g",
				p, res.Stats.ApproxC, prevC)
		}
		prevC = res.Stats.ApproxC
	}
}

func TestDifferentLeafSizes(t *testing.T) {
	spec := dataset.Spec{Name: "t", N: 300, Dim: 16, Divergence: "ed",
		Clusters: 4, Correlation: 0.5, Seed: 8}
	ds := dataset.MustGenerate(spec)
	div, _ := bregman.ByName("ed")
	q := ds.Points[3]
	want := scan.KNN(div, ds.Points, q, 7)
	for _, leaf := range []int{4, 16, 64, 512} {
		ix, err := Build(div, ds.Points, Options{
			M:    4,
			Tree: bbtree.Config{LeafSize: leaf, Seed: 7},
			Disk: disk.Config{PageSize: 4 << 10},
			Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ix.Search(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(res.Items[i].Score-want[i].Score) > 1e-9*(1+want[i].Score) {
				t.Fatalf("leaf=%d: mismatch at %d", leaf, i)
			}
		}
	}
}

func TestAllDatasetStandInsExact(t *testing.T) {
	// End-to-end exactness across all six paper dataset stand-ins at a
	// tiny scale — the integration test for the full pipeline.
	for _, name := range dataset.PaperNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := dataset.PaperSpec(name, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			spec.N = 250
			ds := dataset.MustGenerate(spec)
			div, err := bregman.ByName(ds.Divergence)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(div, ds.Points, Options{
				M:    6,
				Tree: bbtree.Config{LeafSize: 16, Seed: 3},
				Disk: disk.Config{PageSize: ds.PageSize},
				Seed: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			q := ds.Points[42]
			res, err := ix.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			want := scan.KNN(div, ds.Points, q, 10)
			for i := range want {
				if math.Abs(res.Items[i].Score-want[i].Score) > 1e-9*(1+want[i].Score) {
					t.Fatalf("pos %d: got %g want %g", i, res.Items[i].Score, want[i].Score)
				}
			}
		})
	}
}

// TestOptionsDiskDefaults pins that the two disk fields default one by one:
// setting either leaves the other at disk.DefaultConfig's value, whichever
// of the two spellings of the page size is used.
func TestOptionsDiskDefaults(t *testing.T) {
	def := disk.DefaultConfig()
	for _, tc := range []struct {
		name string
		in   Options
		want disk.Config
	}{
		{"zero", Options{}, def},
		{"PageSize only", Options{PageSize: 4096}, disk.Config{PageSize: 4096, IOPS: def.IOPS}},
		{"Disk.PageSize only", Options{Disk: disk.Config{PageSize: 8192}}, disk.Config{PageSize: 8192, IOPS: def.IOPS}},
		{"Disk.PageSize over PageSize", Options{PageSize: 4096, Disk: disk.Config{PageSize: 8192}}, disk.Config{PageSize: 8192, IOPS: def.IOPS}},
		{"Disk.IOPS only", Options{Disk: disk.Config{IOPS: 123}}, disk.Config{PageSize: def.PageSize, IOPS: 123}},
		{"PageSize and Disk.IOPS", Options{PageSize: 4096, Disk: disk.Config{IOPS: 123}}, disk.Config{PageSize: 4096, IOPS: 123}},
		{"latency model off", Options{Disk: disk.Config{IOPS: -1}}, disk.Config{PageSize: def.PageSize, IOPS: -1}},
	} {
		if got := tc.in.withDefaults().Disk; got != tc.want {
			t.Errorf("%s: Disk = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestRangeSearchMatchesBruteForce pins RangeSearch's bounded verification:
// ids and distances equal the brute-force range scan's, bit for bit, at
// radii on both sides of the nearest neighbours.
func TestRangeSearchMatchesBruteForce(t *testing.T) {
	for _, divName := range []string{"ed", "isd", "l2"} {
		ix, ds := buildSmall(t, divName, 3)
		kern := ix.Kernel()
		for qi, q := range dataset.SampleQueries(ds, 4, 5) {
			knn := scan.KNN(ix.Div, ds.Points, q, 40)
			for _, r := range []float64{0, knn[0].Score, knn[9].Score, knn[39].Score * 1.5} {
				got, _, err := ix.RangeSearch(q, r)
				if err != nil {
					t.Fatal(err)
				}
				want := scan.Range(ix.Div, ds.Points, q, r)
				if len(got) != len(want) {
					t.Fatalf("%s query %d r=%g: %d results, want %d", divName, qi, r, len(got), len(want))
				}
				for _, it := range got {
					if d := kern.Distance(ds.Points[it.ID], q); d != it.Score || d > r {
						t.Fatalf("%s query %d r=%g: id %d reported at %g, distance is %g", divName, qi, r, it.ID, it.Score, d)
					}
				}
			}
		}
	}
}
