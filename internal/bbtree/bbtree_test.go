package bbtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/scan"
)

func domainVec(div bregman.Divergence, d int, rng *rand.Rand) []float64 {
	lo, _ := div.Domain()
	v := make([]float64, d)
	for i := range v {
		if math.IsInf(lo, -1) {
			v[i] = 4 * (rng.Float64() - 0.5)
		} else {
			v[i] = lo + 0.1 + 4*rng.Float64()
		}
	}
	return v
}

func clusteredPoints(div bregman.Divergence, n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	lo, _ := div.Domain()
	positive := !math.IsInf(lo, -1)
	centers := make([][]float64, 6)
	for c := range centers {
		centers[c] = domainVec(div, d, rng)
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[rng.Intn(len(centers))]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + 0.2*rng.NormFloat64()
			if positive && p[j] <= 0.01 {
				p[j] = 0.01 + rng.Float64()*0.05
			}
		}
		pts[i] = p
	}
	return pts
}

var treeDivs = []bregman.Divergence{
	bregman.SquaredEuclidean{},
	bregman.ItakuraSaito{},
	bregman.Exponential{},
	bregman.GeneralizedKL{},
}

func TestBuildInvariants(t *testing.T) {
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 400, 6, 1)
		tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 2})
		if tree.Len() != 400 {
			t.Fatalf("%s: Len = %d", div.Name(), tree.Len())
		}
		// Every node ball must contain all points of its subtree.
		var walk func(idx int) []int
		walk = func(idx int) []int {
			node := &tree.Nodes[idx]
			var ids []int
			if node.IsLeaf() {
				ids = node.IDs
			} else {
				ids = append(ids, walk(node.Left)...)
				ids = append(ids, walk(node.Right)...)
			}
			for _, id := range ids {
				d := bregman.Distance(div, tree.SubPoint(id), node.Center)
				if d > node.Radius+1e-9*(1+node.Radius) {
					t.Fatalf("%s: point %d outside ball (D=%g > R=%g)",
						div.Name(), id, d, node.Radius)
				}
			}
			return ids
		}
		all := walk(0)
		if len(all) != 400 {
			t.Fatalf("%s: tree covers %d points", div.Name(), len(all))
		}
		seen := map[int]bool{}
		for _, id := range all {
			if seen[id] {
				t.Fatalf("%s: point %d in two leaves", div.Name(), id)
			}
			seen[id] = true
		}
	}
}

func TestLeafSizeRespected(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 500, 4, 3)
	tree := Build(div, pts, nil, Config{LeafSize: 10, Seed: 1})
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.IsLeaf() && len(n.IDs) > 10 {
			// Depth-capped or degenerate leaves may exceed; they must be rare.
			if len(n.IDs) > 100 {
				t.Fatalf("leaf with %d points", len(n.IDs))
			}
		}
	}
}

func TestKNNExactAllDivergences(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 600, 8, 5)
		tree := Build(div, pts, nil, Config{LeafSize: 20, Seed: 6})
		for trial := 0; trial < 12; trial++ {
			q := pts[rng.Intn(len(pts))]
			k := 1 + rng.Intn(15)
			got, _ := tree.KNN(q, k)
			want := scan.KNN(div, pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("%s: got %d results, want %d", div.Name(), len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > 1e-9*(1+want[i].Score) {
					t.Fatalf("%s k=%d pos=%d: got %g want %g",
						div.Name(), k, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

func TestKNNPrunesOnClusteredData(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 2000, 6, 7)
	tree := Build(div, pts, nil, Config{LeafSize: 32, Seed: 8})
	q := pts[0]
	_, st := tree.KNN(q, 5)
	if st.DistanceComps >= 2000 {
		t.Fatalf("no pruning: %d distance computations", st.DistanceComps)
	}
}

func TestRangeQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 500, 6, 10)
		tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 11})
		for trial := 0; trial < 8; trial++ {
			q := pts[rng.Intn(len(pts))]
			// Radius spanning from selective to broad.
			r := float64(trial) * 0.5
			got, _ := tree.RangeQuery(q, r)
			want := scan.Range(div, pts, q, r)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("%s r=%g: got %d ids, want %d", div.Name(), r, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s r=%g: id mismatch at %d", div.Name(), r, i)
				}
			}
		}
	}
}

func TestRangeLeavesCompleteness(t *testing.T) {
	// Every point within range must live in a visited leaf (candidate
	// completeness at cluster granularity, the filter's soundness).
	div := bregman.Exponential{}
	pts := clusteredPoints(div, 800, 5, 12)
	tree := Build(div, pts, nil, Config{LeafSize: 25, Seed: 13})
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 6; trial++ {
		q := pts[rng.Intn(len(pts))]
		r := 1.0 + float64(trial)
		visited := map[int]bool{}
		tree.RangeLeaves(q, r, func(node *Node) {
			for _, id := range node.IDs {
				visited[id] = true
			}
		})
		for _, id := range scan.Range(div, pts, q, r) {
			if !visited[id] {
				t.Fatalf("in-range point %d not in any visited leaf", id)
			}
		}
	}
}

func TestLowerBoundSoundness(t *testing.T) {
	// The dual-geodesic lower bound must never exceed the true minimum
	// distance from the query to any point in the ball.
	rng := rand.New(rand.NewSource(15))
	for _, div := range treeDivs {
		pts := clusteredPoints(div, 300, 5, 16)
		tree := Build(div, pts, nil, Config{LeafSize: 12, Seed: 17})
		for trial := 0; trial < 10; trial++ {
			q := domainVec(div, 5, rng)
			var proj Projector
			proj.Bind(tree, q)
			for i := range tree.Nodes {
				node := &tree.Nodes[i]
				if !node.IsLeaf() {
					continue
				}
				lb := proj.LowerBound(node)
				for _, id := range node.IDs {
					d := bregman.Distance(div, tree.SubPoint(id), proj.q)
					if lb > d+1e-9*(1+d) {
						t.Fatalf("%s: lb %g > true distance %g (point %d)",
							div.Name(), lb, d, id)
					}
				}
			}
		}
	}
}

func TestSubspaceTree(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 300, 10, 18)
	dims := []int{1, 4, 7}
	tree := Build(div, pts, dims, Config{LeafSize: 16, Seed: 19})
	if tree.SubDim() != 3 {
		t.Fatalf("SubDim = %d", tree.SubDim())
	}
	rng := rand.New(rand.NewSource(20))
	q := pts[rng.Intn(len(pts))]
	got, _ := tree.KNN(q, 5)

	// Brute force in the subspace.
	qSub := Gather(q, dims)
	sub := make([][]float64, len(pts))
	for i, p := range pts {
		sub[i] = Gather(p, dims)
	}
	want := scan.KNN(div, sub, qSub, 5)
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("subspace kNN mismatch at %d: %g vs %g", i, got[i].Score, want[i].Score)
		}
	}
}

func TestLeafOrderIsPermutation(t *testing.T) {
	div := bregman.ItakuraSaito{}
	pts := clusteredPoints(div, 257, 4, 21)
	tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 22})
	order := tree.LeafOrder()
	if len(order) != 257 {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, 257)
	for _, id := range order {
		if id < 0 || id >= 257 || seen[id] {
			t.Fatalf("bad leaf order at id %d", id)
		}
		seen[id] = true
	}
}

func TestDegenerateAllIdentical(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{1, 2, 3}
	}
	tree := Build(div, pts, nil, Config{LeafSize: 8, Seed: 23})
	got, _ := tree.KNN([]float64{1, 2, 3}, 5)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for _, it := range got {
		if it.Score != 0 {
			t.Fatalf("distance %g on identical data", it.Score)
		}
	}
}

func TestEmptyAndTinyTrees(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	empty := Build(div, nil, nil, Config{})
	if res, _ := empty.KNN([]float64{1}, 3); res != nil {
		t.Fatal("empty tree should return nil")
	}
	if empty.Root() != -1 {
		t.Fatal("empty tree root should be -1")
	}
	single := Build(div, [][]float64{{5, 5}}, nil, Config{})
	res, _ := single.KNN([]float64{5, 5}, 3)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("single-point tree: %v", res)
	}
}

func TestKNNZeroK(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	tree := Build(div, [][]float64{{1}, {2}}, nil, Config{})
	if res, _ := tree.KNN([]float64{1}, 0); res != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestKNNBudgetApproximation(t *testing.T) {
	div := bregman.SquaredEuclidean{}
	pts := clusteredPoints(div, 1500, 6, 24)
	tree := Build(div, pts, nil, Config{LeafSize: 16, Seed: 25})
	q := pts[7]
	exact, exSt := tree.KNN(q, 10)
	budget, budSt := tree.KNNBudget(q, 10, 2, nil)
	if budSt.LeavesVisited > exSt.LeavesVisited && budSt.LeavesVisited > 3 {
		t.Fatalf("budgeted search visited %d leaves (exact %d)",
			budSt.LeavesVisited, exSt.LeavesVisited)
	}
	if len(budget) != 10 {
		t.Fatalf("budgeted search returned %d items", len(budget))
	}
	// Budgeted results can't beat exact ones.
	for i := range budget {
		if budget[i].Score < exact[i].Score-1e-12 {
			t.Fatal("budgeted result better than exact — impossible")
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	var a, b Stats
	a = Stats{1, 2, 3, 4}
	b.Add(a)
	b.Add(a)
	if b != (Stats{2, 4, 6, 8}) {
		t.Fatalf("Add wrong: %+v", b)
	}
}

func TestGather(t *testing.T) {
	p := []float64{10, 20, 30, 40}
	if got := Gather(p, []int{3, 0}); got[0] != 40 || got[1] != 10 {
		t.Fatalf("Gather = %v", got)
	}
	cp := Gather(p, nil)
	cp[0] = -1
	if p[0] != 10 {
		t.Fatal("nil-dims Gather must copy")
	}
}

// subtreeIDs returns, per node, the ids of every point in its subtree.
func subtreeIDs(tree *Tree) [][]int {
	out := make([][]int, len(tree.Nodes))
	var walk func(idx int) []int
	walk = func(idx int) []int {
		node := &tree.Nodes[idx]
		if node.IsLeaf() {
			out[idx] = node.IDs
		} else {
			out[idx] = append(append([]int(nil), walk(node.Left)...), walk(node.Right)...)
		}
		return out[idx]
	}
	if len(tree.Nodes) > 0 {
		walk(0)
	}
	return out
}

// decisionQueries mixes queries away from the data, queries that are data
// points (inside their own balls) and, for full-line generators, a query
// whose gradient overflows so the geodesic is not finite.
func decisionQueries(div bregman.Divergence, pts [][]float64, rng *rand.Rand) [][]float64 {
	var qs [][]float64
	for i := 0; i < 4; i++ {
		qs = append(qs, domainVec(div, len(pts[0]), rng), pts[rng.Intn(len(pts))])
	}
	if lo, _ := div.Domain(); math.IsInf(lo, -1) {
		far := append([]float64(nil), pts[0]...)
		far[0] = 720 // e^720 overflows: the exponential family's ∇f is +Inf
		qs = append(qs, far)
	}
	return qs
}

// TestPrunesDecision pins the decision-form bound against the value form
// and against brute force, per registered divergence: Prunes(node, r)
// equals LowerBound(node) > r whenever the two are not within rounding of
// each other, and never prunes a subtree holding a point within r.
func TestPrunesDecision(t *testing.T) {
	for di, div := range bregman.All() {
		rng := rand.New(rand.NewSource(int64(100 + di)))
		pts := clusteredPoints(div, 240, 5, int64(200+di))
		tree := Build(div, pts, nil, Config{LeafSize: 8, Seed: int64(300 + di)})
		subtree := subtreeIDs(tree)
		for _, q := range decisionQueries(div, pts, rng) {
			var proj Projector
			proj.Bind(tree, q)
			for ni := range tree.Nodes {
				node := &tree.Nodes[ni]
				lb := proj.LowerBound(node)
				nearest := math.Inf(1)
				for _, id := range subtree[ni] {
					nearest = math.Min(nearest, tree.kern.Distance(tree.SubPoint(id), proj.q))
				}
				radii := []float64{-1, 0, math.Inf(1), rng.Float64() * 2 * nearest,
					lb * (1 - 1e-3), lb * (1 + 1e-3), nearest * (1 - 1e-3), nearest * (1 + 1e-3)}
				for _, r := range radii {
					prune := proj.Prunes(node, r)
					if prune && nearest <= r {
						t.Fatalf("%s node %d r=%g: pruned, but a subtree point lies at %g", div.Name(), ni, r, nearest)
					}
					if math.Abs(lb-r) > 1e-9*(1+math.Abs(r)) && prune != (lb > r) {
						t.Fatalf("%s node %d r=%g: Prunes = %v, LowerBound = %g", div.Name(), ni, r, prune, lb)
					}
				}
			}
		}
	}
}

// TestRangeLeavesMatchesFullBisection pins the early-exit traversal's
// candidate set to the one a traversal running every bisection to its last
// iteration collects.
func TestRangeLeavesMatchesFullBisection(t *testing.T) {
	for di, div := range bregman.All() {
		rng := rand.New(rand.NewSource(int64(400 + di)))
		pts := clusteredPoints(div, 400, 6, int64(500+di))
		tree := Build(div, pts, nil, Config{LeafSize: 10, Seed: int64(600 + di)})
		for _, q := range decisionQueries(div, pts, rng) {
			knn, _ := tree.KNN(q, 60)
			for _, r := range []float64{0, knn[0].Score / 2, knn[4].Score, knn[59].Score, math.Inf(1)} {
				var proj Projector
				proj.Bind(tree, q)
				want := map[int]bool{}
				var walk func(idx int)
				walk = func(idx int) {
					node := &tree.Nodes[idx]
					if proj.LowerBound(node) > r {
						return
					}
					if node.IsLeaf() {
						for _, id := range node.IDs {
							want[id] = true
						}
						return
					}
					walk(node.Left)
					walk(node.Right)
				}
				walk(0)
				got := map[int]bool{}
				tree.RangeLeaves(q, r, func(node *Node) {
					for _, id := range node.IDs {
						got[id] = true
					}
				})
				if len(got) != len(want) {
					t.Fatalf("%s r=%g: %d candidate ids, full bisection has %d", div.Name(), r, len(got), len(want))
				}
				for id := range want {
					if !got[id] {
						t.Fatalf("%s r=%g: id %d missing from the early-exit traversal", div.Name(), r, id)
					}
				}
			}
		}
	}
}
