package shard

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

// churn deletes `turnover` random live ids and inserts a fresh copy of
// each evicted row, keeping the live oracle map in sync.
func churn(t *testing.T, sx *Index, rng *rand.Rand, live map[int][]float64, turnover int) {
	t.Helper()
	ids := make([]int, 0, len(live))
	for g := range live {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, g := range ids[:turnover] {
		if !sx.Delete(g) {
			t.Fatalf("Delete(%d) refused on a live id", g)
		}
		p := live[g]
		delete(live, g)
		ng, err := sx.Insert(p)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		live[ng] = p
	}
}

// liveOracle is brute-force kNN over the live map with global ids — same
// kernel, same ascending-id offer order as the index's tie-break.
func liveOracle(div bregman.Divergence, live map[int][]float64, q []float64, k int) []topk.Item {
	if k > len(live) {
		k = len(live)
	}
	ids := make([]int, 0, len(live))
	for g := range live {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	kern := kernel.For(div)
	var prep []float64
	if n := kern.QueryScratchLen(len(q)); n > 0 {
		prep = make([]float64, n)
		kern.PrepQuery(prep, q)
	}
	sel := topk.New(k)
	for _, g := range ids {
		sel.Offer(g, kern.DistancePrep(live[g], q, prep))
	}
	return sel.Items()
}

func checkExact(t *testing.T, sx *Index, live map[int][]float64, queries [][]float64, k int, label string) {
	t.Helper()
	for qi, q := range queries {
		got, err := sx.Search(q, k)
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		want := liveOracle(sx.Divergence(), live, q, k)
		if !reflect.DeepEqual(got.Items, want) {
			t.Fatalf("%s query %d: answers diverged\ngot  %v\nwant %v",
				label, qi, got.Items, want)
		}
	}
}

// TestCompactShardInvariants is the tentpole contract test: compaction
// drops shard-local tombstones and folds the insert tail back in while
// N(), Live(), Version(), every Deleted() flag, and every answer stay
// bit-identical.
func TestCompactShardInvariants(t *testing.T) {
	for _, div := range []bregman.Divergence{bregman.SquaredEuclidean{}, bregman.ItakuraSaito{}} {
		rng := rand.New(rand.NewSource(123))
		points := genPoints(rng, 400, 8)
		sx, err := Build(div, points, Options{Shards: 4, Core: core.Options{M: 3, Seed: 7}})
		if err != nil {
			t.Fatal(err)
		}
		live := map[int][]float64{}
		for g, p := range points {
			live[g] = p
		}
		churn(t, sx, rng, live, 200)

		queries := points[:10]
		checkExact(t, sx, live, queries, 9, "pre-compact")

		// Decay is visible in health and in the ShardSizes/ShardLiveSizes
		// split before compaction...
		sizes, liveSizes := sx.ShardSizes(), sx.ShardLiveSizes()
		tombstoned := 0
		for s := range sizes {
			if sizes[s] < liveSizes[s] {
				t.Fatalf("shard %d: resident %d < live %d", s, sizes[s], liveSizes[s])
			}
			tombstoned += sizes[s] - liveSizes[s]
		}
		if tombstoned == 0 {
			t.Fatal("churn left no shard-local tombstones; test is vacuous")
		}
		deletedBefore := make([]bool, sx.N())
		for g := 0; g < sx.N(); g++ {
			deletedBefore[g] = sx.Deleted(g)
		}
		n, liveN, ver := sx.N(), sx.Live(), sx.Version()

		var dropped, after int
		for s := 0; s < sx.Shards(); s++ {
			st, err := sx.CompactShard(s)
			if err != nil {
				t.Fatalf("CompactShard(%d): %v", s, err)
			}
			if st.After > st.Before {
				t.Fatalf("shard %d: After %d > Before %d", s, st.After, st.Before)
			}
			dropped += st.Dropped
			after += st.After
		}
		if dropped != tombstoned {
			t.Fatalf("Dropped %d tombstones, shards held %d", dropped, tombstoned)
		}
		if after != liveN {
			t.Fatalf("After sums to %d, Live() was %d", after, liveN)
		}

		// ...and gone after: every shard back to live-ratio 1, tail 0.
		for _, h := range sx.Health() {
			if h.N != h.Live || h.Tail != 0 {
				t.Fatalf("shard %d not clean after compaction: %+v", h.Shard, h)
			}
		}
		if sx.N() != n || sx.Live() != liveN || sx.Version() != ver {
			t.Fatalf("compaction changed the logical index: N %d→%d Live %d→%d Version %d→%d",
				n, sx.N(), liveN, sx.Live(), ver, sx.Version())
		}
		for g := 0; g < n; g++ {
			if sx.Deleted(g) != deletedBefore[g] {
				t.Fatalf("Deleted(%d) flipped %v→%v across compaction",
					g, deletedBefore[g], sx.Deleted(g))
			}
		}
		checkExact(t, sx, live, queries, 9, "post-compact")

		// Gone ids stay dead: deleting one again still reports not-found,
		// and mutations after compaction keep working.
		for g := 0; g < n; g++ {
			if deletedBefore[g] && sx.Delete(g) {
				t.Fatalf("Delete(%d) succeeded on a gone id", g)
			}
		}
		churn(t, sx, rng, live, 50)
		checkExact(t, sx, live, queries, 9, "post-compact churn")
	}
}

// TestCompactAllDeleted drives a shard (and then the whole index) to
// empty: compaction must install a nil slot, searches must degrade
// gracefully, and inserts must re-materialize the shard.
func TestCompactAllDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points := genPoints(rng, 120, 6)
	div := bregman.SquaredEuclidean{}
	sx, err := Build(div, points, Options{Shards: 3, Core: core.Options{M: 2, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for g := range points {
		if !sx.Delete(g) {
			t.Fatalf("Delete(%d) refused", g)
		}
	}
	for s := 0; s < sx.Shards(); s++ {
		st, err := sx.CompactShard(s)
		if err != nil {
			t.Fatalf("CompactShard(%d): %v", s, err)
		}
		if st.After != 0 {
			t.Fatalf("shard %d: After = %d, want 0", s, st.After)
		}
	}
	if sx.Live() != 0 || sx.N() != len(points) {
		t.Fatalf("Live=%d N=%d after emptying", sx.Live(), sx.N())
	}
	res, err := sx.Search(points[0], 5)
	if err != nil {
		t.Fatalf("search over empty index: %v", err)
	}
	if len(res.Items) != 0 {
		t.Fatalf("empty index returned %d items", len(res.Items))
	}

	// Re-materialize via Insert and search again.
	g, err := sx.Insert(points[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err = sx.Search(points[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].ID != g {
		t.Fatalf("reborn index answered %v, want sole id %d", res.Items, g)
	}

	// Out-of-range shard errors.
	if _, err := sx.CompactShard(99); err == nil {
		t.Fatal("CompactShard(99) did not error")
	}
	if _, err := sx.CompactShard(-1); err == nil {
		t.Fatal("CompactShard(-1) did not error")
	}
}

// TestCompactManifestRoundTrip persists an index with gone ids (manifest
// v3's relaxed ownership) alongside ordinary shard-local tombstones and
// checks the reload answers, counters, and tombstone flags all survive.
func TestCompactManifestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	points := genPoints(rng, 300, 8)
	div := bregman.GeneralizedKL{}
	sx, err := Build(div, points, Options{Shards: 4, Core: core.Options{M: 3, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	live := map[int][]float64{}
	for g, p := range points {
		live[g] = p
	}
	churn(t, sx, rng, live, 150)
	// Compact only half the shards: the manifest must carry gone ids (from
	// compacted shards) and resident tombstones (uncompacted) at once.
	for s := 0; s < 2; s++ {
		if _, err := sx.CompactShard(s); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	if err := sx.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// (Version is not the manifest's to restore — the durable layer
	// rebuilds it from the WAL LSN.)
	if loaded.N() != sx.N() || loaded.Live() != sx.Live() {
		t.Fatalf("reload: N %d/%d Live %d/%d",
			loaded.N(), sx.N(), loaded.Live(), sx.Live())
	}
	for g := 0; g < sx.N(); g++ {
		if loaded.Deleted(g) != sx.Deleted(g) {
			t.Fatalf("Deleted(%d) lost in round trip", g)
		}
	}
	checkExact(t, loaded, live, points[:10], 7, "reloaded")

	// The reload is mutable: churn and compact it again.
	churn(t, loaded, rng, live, 40)
	for s := 0; s < loaded.Shards(); s++ {
		if _, err := loaded.CompactShard(s); err != nil {
			t.Fatal(err)
		}
	}
	checkExact(t, loaded, live, points[:10], 7, "reloaded+compacted")
}

// TestCompactDuringConcurrentSearch is the generation-swap -race test:
// searchers verify exact answers nonstop while a mutator churns a far
// cluster and a compactor sweeps every shard in a loop. Queries must
// never block on a rebuild and never see a torn generation; Version()
// must change only by mutation, never by compaction.
func TestCompactDuringConcurrentSearch(t *testing.T) {
	const (
		nNear  = 240
		nFar   = 80
		d      = 10
		k      = 6
		shards = 4
	)
	searchers, rounds, mutations, sweeps := 4, 10, 240, 12
	if testing.Short() {
		searchers, rounds, mutations, sweeps = 2, 4, 60, 4
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

	queries := make([][]float64, 10)
	oracle := make([][]topk.Item, len(queries))
	for i := range queries {
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.Float64()
		}
		queries[i] = q
		oracle[i] = scan.KNN(div, points, q, k)
		if oracle[i][k-1].Score > float64(d) {
			t.Fatalf("oracle %d reaches the far cluster; construction broken", i)
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Mutator: churns only the far cluster, so the near-cluster top-k is
	// invariant across every reachable state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
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
			} else {
				pick := mrng.Intn(len(farIDs))
				if !sx.Delete(farIDs[pick]) {
					t.Errorf("Delete(%d) = false", farIDs[pick])
					return
				}
				farIDs = append(farIDs[:pick], farIDs[pick+1:]...)
			}
		}
	}()

	// Compactor: sweeps all shards over and over while everything runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeps; i++ {
			for s := 0; s < shards; s++ {
				if _, err := sx.CompactShard(s); err != nil {
					t.Errorf("CompactShard(%d): %v", s, err)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for qi, q := range queries {
					res, err := sx.Search(q, k)
					if err != nil {
						t.Errorf("Search: %v", err)
						return
					}
					if !reflect.DeepEqual(res.Items, oracle[qi]) {
						t.Errorf("query %d diverged during compaction\ngot  %v\nwant %v",
							qi, res.Items, oracle[qi])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: a final full sweep with no racing mutations must not move
	// Version, and answers must still be exact.
	ver := sx.Version()
	for s := 0; s < shards; s++ {
		if _, err := sx.CompactShard(s); err != nil {
			t.Fatal(err)
		}
	}
	if sx.Version() != ver {
		t.Fatalf("quiesced compaction sweep moved Version %d→%d", ver, sx.Version())
	}
	for qi, q := range queries {
		res, err := sx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Items, oracle[qi]) {
			t.Fatalf("query %d wrong after quiesced sweep", qi)
		}
	}
}
