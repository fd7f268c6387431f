package shard

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

// genPoints returns n positive-valued d-dimensional rows (inside every
// registered divergence's domain).
func genPoints(rng *rand.Rand, n, d int) [][]float64 {
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, d)
		base := 0.5 + 3*float64(i%4)
		for j := range p {
			p[j] = base + rng.Float64()
		}
		points[i] = p
	}
	return points
}

func buildBoth(t testing.TB, div bregman.Divergence, points [][]float64, shards, m int) (*Index, *core.Index) {
	t.Helper()
	sx, err := Build(div, points, Options{Shards: shards, Core: core.Options{M: m, Seed: 7}})
	if err != nil {
		t.Fatalf("shard.Build: %v", err)
	}
	cx, err := core.Build(div, points, core.Options{M: m, Seed: 7})
	if err != nil {
		t.Fatalf("core.Build: %v", err)
	}
	return sx, cx
}

// TestShardedMatchesSingleAndOracle pins the central contract: for random
// datasets, shard counts, and divergences, the sharded Search returns
// exactly (ids and distances, bit for bit) what the brute-force oracle and
// the unsharded index return.
func TestShardedMatchesSingleAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	divs := []bregman.Divergence{
		bregman.SquaredEuclidean{}, bregman.ItakuraSaito{}, bregman.GeneralizedKL{},
	}
	for _, div := range divs {
		for _, shards := range []int{1, 2, 3, 4, 7} {
			n := 150 + rng.Intn(250)
			d := 6 + rng.Intn(10)
			k := 1 + rng.Intn(12)
			points := genPoints(rng, n, d)
			sx, cx := buildBoth(t, div, points, shards, 3)

			if got := sx.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			sizes := sx.ShardSizes()
			totalOwned := 0
			for _, sz := range sizes {
				totalOwned += sz
			}
			if totalOwned != n || sx.N() != n || sx.Live() != n {
				t.Fatalf("ownership accounting broken: sizes=%v N=%d Live=%d want n=%d",
					sizes, sx.N(), sx.Live(), n)
			}

			for qi := 0; qi < 8; qi++ {
				q := points[rng.Intn(n)]
				oracle := scan.KNN(div, points, q, k)
				sres, err := sx.Search(q, k)
				if err != nil {
					t.Fatalf("div=%s shards=%d: sharded Search: %v", div.Name(), shards, err)
				}
				if !reflect.DeepEqual(sres.Items, oracle) {
					t.Fatalf("div=%s shards=%d n=%d k=%d query %d: sharded != oracle\ngot  %v\nwant %v",
						div.Name(), shards, n, k, qi, sres.Items, oracle)
				}
				cres, err := cx.Search(q, k)
				if err != nil {
					t.Fatalf("core Search: %v", err)
				}
				if !reflect.DeepEqual(sres.Items, cres.Items) {
					t.Fatalf("div=%s shards=%d: sharded != single-index\ngot  %v\nwant %v",
						div.Name(), shards, sres.Items, cres.Items)
				}
			}
		}
	}
}

// TestShardedRangeSearchMatchesBruteForce checks the scatter-gather range
// query against a full scan, including the (distance, id) ordering.
func TestShardedRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	div := bregman.SquaredEuclidean{}
	points := genPoints(rng, 300, 8)
	sx, _ := buildBoth(t, div, points, 4, 2)

	for qi := 0; qi < 6; qi++ {
		q := points[rng.Intn(len(points))]
		r := 0.5 + 4*rng.Float64()
		items, _, err := rangeSearch(sx, q, r)
		if err != nil {
			t.Fatal(err)
		}
		var want []topk.Item
		for id, p := range points {
			if dist := kernel.For(div).Distance(p, q); dist <= r {
				want = append(want, topk.Item{ID: id, Score: dist})
			}
		}
		// Brute force in (score, id) order to match the merge contract.
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && (want[j].Score < want[j-1].Score ||
				(want[j].Score == want[j-1].Score && want[j].ID < want[j-1].ID)); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if len(items) == 0 {
			items = nil
		}
		if !reflect.DeepEqual(items, want) {
			t.Fatalf("range r=%.3f: got %v, want %v", r, items, want)
		}
	}
}

// TestShardedBatchMatchesSequential: a batch must equal a Search loop, on a
// plain sharded index and on a handle serving through its cold tier alike
// (ISSUE 23: the handle's cold batch used to run its queries one after
// another and drop every result on the first error). Either way every
// query settles before the first error is reported.
func TestShardedBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	div := bregman.ItakuraSaito{}
	points := genPoints(rng, 400, 10)
	sx, _ := buildBoth(t, div, points, 4, 3)

	h, _, _, hpts := buildHandle(t, 400)
	defer h.Close()
	if err := h.EnableColdTier(shardColdCfg()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		b      engine.Backend
		points [][]float64
	}{
		{"sharded", sx, points},
		{"handle-cold", h, hpts},
	} {
		t.Run(c.name, func(t *testing.T) {
			queries := make([][]float64, 32)
			for i := range queries {
				queries[i] = c.points[rng.Intn(len(c.points))]
			}
			const k = 7
			batch, err := batchSearch(c.b, queries, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				want, err := search(c.b, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[i].Items, want.Items) {
					t.Fatalf("query %d: batch %v, sequential %v", i, batch[i].Items, want.Items)
				}
			}

			// One bad member fails the batch but not its neighbours.
			queries[3] = queries[3][:2]
			batch, err = batchSearch(c.b, queries, k)
			if !errors.Is(err, core.ErrDim) {
				t.Fatalf("batch with a short query: err = %v, want ErrDim", err)
			}
			if len(batch) != len(queries) || len(batch[4].Items) != k || len(batch[3].Items) != 0 {
				t.Fatalf("batch did not settle every query: %d results, neighbour has %d items", len(batch), len(batch[4].Items))
			}
		})
	}
	if st, ok := h.ColdStats(); !ok || st.Queries == 0 {
		t.Fatalf("the handle's batch never reached the cold tier: %+v ok=%v", st, ok)
	}
}

// TestShardedMutationOracle interleaves Insert/Delete with quiesced oracle
// checks: after every burst of mutations, Search must equal a brute-force
// scan over the live set with global ids.
func TestShardedMutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	div := bregman.SquaredEuclidean{}
	points := genPoints(rng, 120, 6)
	sx, _ := buildBoth(t, div, points, 3, 2)

	type row struct {
		id int
		p  []float64
	}
	live := make([]row, 0, 256)
	for id, p := range points {
		live = append(live, row{id, p})
	}
	oracle := func(q []float64, k int) []topk.Item {
		sel := topk.New(k)
		for _, r := range live {
			sel.Offer(r.id, kernel.For(div).Distance(r.p, q))
		}
		return sel.Items()
	}

	v0 := sx.Version()
	for round := 0; round < 12; round++ {
		for m := 0; m < 10; m++ {
			if rng.Intn(3) == 0 && len(live) > 20 {
				pick := rng.Intn(len(live))
				if !sx.Delete(live[pick].id) {
					t.Fatalf("Delete(%d) = false for a live id", live[pick].id)
				}
				if sx.Delete(live[pick].id) {
					t.Fatalf("double Delete(%d) = true", live[pick].id)
				}
				live = append(live[:pick], live[pick+1:]...)
			} else {
				p := genPoints(rng, 1, 6)[0]
				id, err := sx.Insert(p)
				if err != nil {
					t.Fatalf("Insert: %v", err)
				}
				live = append(live, row{id, p})
			}
		}
		if sx.Live() != len(live) {
			t.Fatalf("round %d: Live() = %d, oracle has %d", round, sx.Live(), len(live))
		}
		q := live[rng.Intn(len(live))].p
		k := 1 + rng.Intn(9)
		res, err := sx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(q, k); !reflect.DeepEqual(res.Items, want) {
			t.Fatalf("round %d: post-mutation sharded answer diverged\ngot  %v\nwant %v",
				round, res.Items, want)
		}
	}
	if sx.Version() == v0 {
		t.Fatal("Version did not advance across mutations")
	}
}

// TestShardedErrors pins the error surface.
func TestShardedErrors(t *testing.T) {
	if _, err := Build(bregman.SquaredEuclidean{}, nil, Options{}); err != core.ErrEmpty {
		t.Fatalf("empty Build error = %v, want core.ErrEmpty", err)
	}
	rng := rand.New(rand.NewSource(1))
	sx, _ := buildBoth(t, bregman.SquaredEuclidean{}, genPoints(rng, 50, 5), 2, 2)
	if _, err := sx.Search(make([]float64, 5), 0); err == nil {
		t.Fatal("k=0 Search succeeded")
	}
	if _, err := sx.Search(make([]float64, 4), 3); err == nil {
		t.Fatal("wrong-dimension Search succeeded")
	}
	if _, err := sx.Insert(make([]float64, 4)); err == nil {
		t.Fatal("wrong-dimension Insert succeeded")
	}
	if sx.Delete(-1) || sx.Delete(99999) {
		t.Fatal("out-of-range Delete returned true")
	}
}

// TestShardedQueryAllocs pins what one exact, untraced, unfiltered query
// over four built shards allocates: the per-query parts, the wait group
// and one closure per forked shard, each shard's result items and the
// merged answer. Queueing each shard's part on a per-shard engine would
// add a future, a channel and a worker per shard, 24 allocations in all.
func TestShardedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(9))
	points := genPoints(rng, 400, 12)
	sx, err := Build(bregman.ItakuraSaito{}, points, Options{Shards: 4, Core: core.Options{M: 3, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for s, sl := range sx.snapshotSlots() {
		if sl == nil {
			t.Fatalf("shard %d is empty; the test needs four live shards", s)
		}
	}
	q := &core.Query{Vec: points[17], K: 10}
	if _, err := sx.Query(nil, q); err != nil { // warm each shard's pooled search context
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sx.Query(nil, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("sharded Query allocates %.1f times per call over 4 shards, want ≤ 12", allocs)
	}
}

// TestOneShardQueryAllocs pins the one-shard path every single-index
// build takes: a steady-state exact, untraced query with a reused dst
// runs the shard in the caller and translates ids in place, so it
// allocates nothing, exactly like the core index beneath it.
func TestOneShardQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(9))
	points := genPoints(rng, 400, 12)
	sx, err := Build(bregman.ItakuraSaito{}, points, Options{Shards: 1, Core: core.Options{M: 3, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	q := &core.Query{Vec: points[17], K: 10}
	res, err := sx.Query(nil, q) // warm the pooled search context
	if err != nil {
		t.Fatal(err)
	}
	dst := res.Items
	allocs := testing.AllocsPerRun(200, func() {
		res, err := sx.Query(dst[:0], q)
		if err != nil {
			t.Fatal(err)
		}
		dst = res.Items
	})
	if allocs != 0 {
		t.Fatalf("one-shard Query allocates %.1f times per call, want 0", allocs)
	}
}
