package bbforest

import (
	"math/rand"
	"testing"

	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/dataset"
	"brepartition/internal/disk"
	"brepartition/internal/partition"
	"brepartition/internal/transform"
)

func testData(tb testing.TB, n int) ([][]float64, bregman.Divergence) {
	tb.Helper()
	spec, err := dataset.PaperSpec("audio", 0.02)
	if err != nil {
		tb.Fatal(err)
	}
	spec.N = n
	spec.Dim = 24
	spec.Blocks = 4
	ds, err := dataset.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	div, err := bregman.ByName(ds.Divergence)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Points, div
}

func buildForest(tb testing.TB, points [][]float64, div bregman.Divergence, m int) *Forest {
	tb.Helper()
	parts := partition.Equal(len(points[0]), m)
	f, err := Build(div, points, parts, Config{
		Tree: bbtree.Config{LeafSize: 16, Seed: 3},
		Disk: disk.Config{PageSize: 2 << 10},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func TestBuildValidatesPartition(t *testing.T) {
	points, div := testData(t, 100)
	_, err := Build(div, points, [][]int{{0, 1}}, Config{
		Disk: disk.Config{PageSize: 1 << 10},
	})
	if err == nil {
		t.Fatal("incomplete partition accepted")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	_, div := testData(t, 100)
	if _, err := Build(div, nil, nil, Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestForestShape(t *testing.T) {
	points, div := testData(t, 400)
	f := buildForest(t, points, div, 4)
	if f.M() != 4 {
		t.Fatalf("M = %d", f.M())
	}
	if f.Store.Len() != 400 {
		t.Fatalf("store len = %d", f.Store.Len())
	}
	for i, tree := range f.Trees {
		if tree.Len() != 400 {
			t.Fatalf("tree %d has %d points", i, tree.Len())
		}
		if tree.SubDim() != 6 {
			t.Fatalf("tree %d SubDim = %d", i, tree.SubDim())
		}
	}
}

func TestLayoutFollowsReferenceTree(t *testing.T) {
	points, div := testData(t, 300)
	f := buildForest(t, points, div, 3)
	order := f.Trees[0].LeafOrder()
	// Successive ids in leaf order should map to non-decreasing pages.
	prevPage := -1
	for _, id := range order {
		page := f.Store.PageOf(id)
		if page < prevPage {
			t.Fatalf("leaf order not contiguous on disk: page %d after %d", page, prevPage)
		}
		prevPage = page
	}
}

func TestCandidateUnionCompleteness(t *testing.T) {
	// Every point within the per-subspace radius in ANY subspace must be
	// in the union (Theorem 3 at cluster granularity).
	points, div := testData(t, 500)
	f := buildForest(t, points, div, 4)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		q := points[rng.Intn(len(points))]
		radii := make([]float64, f.M())
		for i := range radii {
			radii[i] = 0.5 + float64(trial)
		}
		sess := f.Store.NewSession()
		cands, _ := f.CandidateUnion(q, radii, sess)
		inUnion := map[int]bool{}
		for _, id := range cands {
			inUnion[id] = true
		}
		for id, p := range points {
			for si, dims := range f.Parts {
				if transform.SubspaceDistance(div, p, q, dims) <= radii[si] {
					if !inUnion[id] {
						t.Fatalf("point %d within subspace %d radius but missing", id, si)
					}
					break
				}
			}
		}
		if sess.PageReads() == 0 && len(cands) > 0 {
			t.Fatal("candidates produced without any page reads")
		}
	}
}

func TestCandidateUnionDeduplicates(t *testing.T) {
	points, div := testData(t, 200)
	f := buildForest(t, points, div, 4)
	radii := []float64{1e18, 1e18, 1e18, 1e18}
	sess := f.Store.NewSession()
	cands, _ := f.CandidateUnion(points[0], radii, sess)
	if len(cands) != 200 {
		t.Fatalf("infinite radii should yield all %d points once, got %d", 200, len(cands))
	}
	seen := map[int]bool{}
	for _, id := range cands {
		if seen[id] {
			t.Fatalf("duplicate candidate %d", id)
		}
		seen[id] = true
	}
	if sess.PageReads() != f.Store.NumPages() {
		t.Fatalf("read %d pages, want all %d", sess.PageReads(), f.Store.NumPages())
	}
}

func TestCandidateUnionRadiiMismatchPanics(t *testing.T) {
	points, div := testData(t, 100)
	f := buildForest(t, points, div, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.CandidateUnion(points[0], []float64{1}, f.Store.NewSession())
}

func TestCandidatesPerSubspace(t *testing.T) {
	points, div := testData(t, 300)
	f := buildForest(t, points, div, 3)
	radii := []float64{2, 2, 2}
	per := f.CandidatesPerSubspace(points[0], radii)
	if len(per) != 3 {
		t.Fatalf("got %d subspace sets", len(per))
	}
	// Union of per-subspace sets must equal CandidateUnion's ids.
	union := map[int]bool{}
	for _, ids := range per {
		for _, id := range ids {
			union[id] = true
		}
	}
	sess := f.Store.NewSession()
	cands, _ := f.CandidateUnion(points[0], radii, sess)
	if len(cands) != len(union) {
		t.Fatalf("union sizes differ: %d vs %d", len(cands), len(union))
	}
}

func TestReferenceSubspaceSelection(t *testing.T) {
	points, div := testData(t, 200)
	parts := partition.Equal(24, 4)
	f, err := Build(div, points, parts, Config{
		Tree:              bbtree.Config{LeafSize: 16, Seed: 3},
		Disk:              disk.Config{PageSize: 2 << 10},
		ReferenceSubspace: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	order := f.Trees[2].LeafOrder()
	prevPage := -1
	for _, id := range order {
		page := f.Store.PageOf(id)
		if page < prevPage {
			t.Fatal("layout does not follow the chosen reference subspace")
		}
		prevPage = page
	}
}

// TestPCCPLayoutReducesIO verifies the §6 claim on the dup-structured
// stand-in: with PCCP-aligned subspaces, the distinct pages touched by a
// multi-subspace candidate union should not exceed the sum of per-subspace
// page sets (reuse happens).
func TestPCCPLayoutReducesIO(t *testing.T) {
	points, div := testData(t, 600)
	parts := partition.PCCP(points, 4, 0, 1)
	f, err := Build(div, points, parts, Config{
		Tree: bbtree.Config{LeafSize: 16, Seed: 3},
		Disk: disk.Config{PageSize: 2 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := points[5]
	radii := make([]float64, f.M())
	for i := range radii {
		radii[i] = 1.0
	}
	per := f.CandidatesPerSubspace(q, radii)
	var sumPages int
	for _, ids := range per {
		pages := map[int]bool{}
		for _, id := range ids {
			pages[f.Store.PageOf(id)] = true
		}
		sumPages += len(pages)
	}
	sess := f.Store.NewSession()
	f.CandidateUnion(q, radii, sess)
	if sess.PageReads() > sumPages {
		t.Fatalf("union pages %d exceed per-subspace sum %d", sess.PageReads(), sumPages)
	}
}

// unionOf is the reference candidate union: every subspace walked (no
// saturation exit), ids merged, keep applied afterwards.
func unionOf(f *Forest, q, radii []float64, keep func(int) bool) map[int]bool {
	union := map[int]bool{}
	for _, ids := range f.CandidatesPerSubspace(q, radii) {
		for _, id := range ids {
			if keep == nil || keep(id) {
				union[id] = true
			}
		}
	}
	return union
}

func sameIDSet(t *testing.T, what string, got []int, want map[int]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("%s: unexpected (or duplicate) candidate %d", what, id)
		}
		delete(want, id)
	}
}

// TestSaturationExit pins when the filter may stop walking subspace trees:
// only once every live id has been stamped, counted before keep is asked
// and with deleted ids discounted only when the forest removed them itself.
func TestSaturationExit(t *testing.T) {
	points, div := testData(t, 300)
	q := points[7]
	wide := []float64{1e18, 1e18, 1e18}
	// narrowFirst prunes in the first subspace, so its walk cannot saturate.
	narrowFirst := []float64{0.05, 1e18, 1e18}
	even := func(id int) bool { return id%2 == 0 }
	var sc SearchScratch

	f := buildForest(t, points, div, 3)
	firstTree := f.Trees[0].RangeLeaves(q, wide[0], func(*bbtree.Node) {})
	check := func(what string, radii []float64, keep func(int) bool, saturates bool) {
		t.Helper()
		got, st := f.CandidateUnionFilterCtx(q, radii, f.Store.NewSession(), &sc, keep)
		sameIDSet(t, what, got, unionOf(f, q, radii, keep))
		if stopped := st.NodesVisited == firstTree.NodesVisited; stopped != saturates {
			t.Fatalf("%s: visited %d nodes (first tree alone: %d), want saturation exit = %v",
				what, st.NodesVisited, firstTree.NodesVisited, saturates)
		}
	}
	check("all ids", wide, nil, true)
	check("all ids, filtered", wide, even, true)
	check("first subspace pruned", narrowFirst, nil, false)
	check("first subspace pruned, filtered", narrowFirst, even, false)

	// Deletes through the forest are discounted: the exit still fires, and
	// a forest re-assembled from the same trees counts them the same way.
	for _, id := range []int{3, 50, 299} {
		if !f.Delete(id) {
			t.Fatalf("Delete(%d) found nothing", id)
		}
	}
	if f.Delete(50) {
		t.Fatal("second Delete(50) reported a removal")
	}
	firstTree = f.Trees[0].RangeLeaves(q, wide[0], func(*bbtree.Node) {})
	check("after deletes", wide, nil, true)
	check("after deletes, filtered", wide, even, true)
	f = FromTrees(f.Trees, f.Parts, f.Store)
	check("re-assembled", wide, nil, true)

	// An insert grows the live count with the store.
	id, err := f.Insert(points[11])
	if err != nil || id != 300 {
		t.Fatalf("Insert = %d, %v", id, err)
	}
	firstTree = f.Trees[0].RangeLeaves(q, wide[0], func(*bbtree.Node) {})
	check("after insert", wide, nil, true)

	// A tombstone the forest cannot vouch for — the id left one tree behind
	// the forest's back — must not be discounted: the first tree comes up
	// one id short of the live count, so the others are still walked and
	// the id is still found.
	f.Trees[0].Delete(120)
	check("unvouched delete", wide, nil, false)
}
