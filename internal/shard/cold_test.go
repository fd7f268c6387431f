package shard

import (
	"math/rand"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/coldtier"
	"brepartition/internal/core"
)

func shardColdCfg() coldtier.Config {
	// Tight budget so the tests actually exercise eviction and admission.
	return coldtier.Config{Bits: 6, PageSize: 1 << 10, CacheBytes: 16 << 10, AdmitPerQuery: 8, Prefetch: 2}
}

// SearchCold across shards must be bit-identical to Search: local-id
// answers from per-sub tiers flow through the same l2g merge.
func TestShardColdMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	points := genPoints(rng, 900, 10)
	for _, div := range []bregman.Divergence{bregman.SquaredEuclidean{}, bregman.GeneralizedKL{}} {
		div := div
		t.Run(div.Name(), func(t *testing.T) {
			sx, _ := buildBoth(t, div, points, 5, 4)
			if err := sx.EnsureColdTier(t.TempDir(), shardColdCfg()); err != nil {
				t.Fatal(err)
			}
			defer sx.CloseColdTier()
			if !sx.HasColdTier() {
				t.Fatal("HasColdTier = false after EnsureColdTier")
			}
			for qi := 0; qi < 12; qi++ {
				q := points[rng.Intn(len(points))]
				hot, err := sx.Search(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := searchCold(sx, q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if len(hot.Items) != len(cold.Items) {
					t.Fatalf("query %d: %d vs %d items", qi, len(hot.Items), len(cold.Items))
				}
				for i := range hot.Items {
					if hot.Items[i] != cold.Items[i] {
						t.Fatalf("query %d pos %d: hot %+v cold %+v", qi, i, hot.Items[i], cold.Items[i])
					}
				}
			}
			if n := sx.ColdFallbacks(); n != 0 {
				t.Fatalf("fresh tiers fell back %d times", n)
			}
			st, ok := sx.ColdStats()
			if !ok || st.Queries == 0 || st.Scanned == 0 {
				t.Fatalf("cold stats missing: %+v ok=%v", st, ok)
			}
			if st.Pruned == 0 {
				t.Fatal("compressed-domain pass pruned nothing")
			}
		})
	}
}

// A mutation staleness-invalidates only the owning shard's tier: cold
// searches stay exact, with the stale sub serving hot (counted) while
// the others keep serving cold. EnsureColdTier refreshes in place.
func TestShardColdStalenessIsPerShard(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	points := genPoints(rng, 600, 8)
	sx, _ := buildBoth(t, bregman.SquaredEuclidean{}, points, 4, 4)
	dir := t.TempDir()
	if err := sx.EnsureColdTier(dir, shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	defer sx.CloseColdTier()

	p := points[rng.Intn(len(points))]
	if _, err := sx.Insert(p); err != nil {
		t.Fatal(err)
	}
	q := points[rng.Intn(len(points))]
	hot, err := sx.Search(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := searchCold(sx, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hot.Items {
		if hot.Items[i] != cold.Items[i] {
			t.Fatalf("stale-shard answer diverged at %d: hot %+v cold %+v", i, hot.Items[i], cold.Items[i])
		}
	}
	fb := sx.ColdFallbacks()
	if fb != 1 {
		t.Fatalf("fallbacks = %d, want 1 (only the mutated shard)", fb)
	}

	if err := sx.EnsureColdTier(dir, shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := searchCold(sx, q, 8); err != nil {
		t.Fatal(err)
	}
	if got := sx.ColdFallbacks(); got != fb {
		t.Fatalf("refreshed tiers still falling back: %d -> %d", fb, got)
	}
}

// Compaction replaces a slot wholesale; the new sub carries no tier and
// must transparently serve hot until tiers are re-ensured.
func TestDurableColdCompactionFallsBackHot(t *testing.T) {
	root := t.TempDir()
	pts := handlePoints(400, 8, 21)
	d, err := BuildDurable(bregman.SquaredEuclidean{}, pts, root, DurableOptions{
		Shards: 3, Core: core.Options{M: 4, Seed: 2}, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.EnsureColdTier(shardColdCfg()); err != nil {
		t.Fatal(err)
	}

	// Delete a few points so compaction has something to reclaim, then
	// refresh the tiers so the only staleness left is the compacted slot.
	for id := 0; id < 6; id++ {
		if _, err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.EnsureColdTier(shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	base := d.ix.ColdFallbacks()
	if _, err := d.CompactShard(1); err != nil {
		t.Fatal(err)
	}
	if d.ix.HasColdTier() {
		t.Fatal("HasColdTier should be false after compaction replaced a slot")
	}

	q := pts[100]
	hot, err := d.Search(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := searchCold(d, q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hot.Items {
		if hot.Items[i] != cold.Items[i] {
			t.Fatalf("post-compaction cold diverged at %d", i)
		}
	}
	if d.ix.ColdFallbacks() == base {
		t.Fatal("compacted slot's hot serve was not counted")
	}

	// Re-ensure rebuilds the compacted slot's tier; cold serving resumes.
	if err := d.EnsureColdTier(shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	if !d.ix.HasColdTier() {
		t.Fatal("HasColdTier = false after re-ensure")
	}
	after := d.ix.ColdFallbacks()
	if _, err := searchCold(d, q, 7); err != nil {
		t.Fatal(err)
	}
	if got := d.ix.ColdFallbacks(); got != after {
		t.Fatalf("re-ensured tiers still falling back: %d -> %d", after, got)
	}
}

// EnableColdTier routes the handle's exact search surface through the
// tier and survives a reload (the new generation re-ensures its tiers).
func TestHandleColdTierRoutingAndReload(t *testing.T) {
	h, root, opts, pts := buildHandle(t, 500)
	defer h.Close()

	q := pts[42]
	want, err := search(h, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.EnableColdTier(shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	if !h.ColdTierEnabled() {
		t.Fatal("ColdTierEnabled = false after enable")
	}
	got, err := search(h, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Items {
		if want.Items[i] != got.Items[i] {
			t.Fatalf("cold-routed Search diverged at %d", i)
		}
	}
	if st, ok := h.ColdStats(); !ok || st.Queries == 0 {
		t.Fatalf("cold stats missing after routed search: %+v ok=%v", st, ok)
	}

	// Batch goes through the tier too.
	batch, err := batchSearch(h, [][]float64{q, pts[7]}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || len(batch[0].Items) != 5 {
		t.Fatalf("batch shape: %d results", len(batch))
	}

	if err := h.Reload(func() (*Durable, error) { return OpenDurable(root, opts) }); err != nil {
		t.Fatal(err)
	}
	if !h.ColdTierEnabled() {
		t.Fatal("reload dropped the cold-tier setting")
	}
	got2, err := search(h, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Items {
		if want.Items[i] != got2.Items[i] {
			t.Fatalf("post-reload cold Search diverged at %d", i)
		}
	}

	// Disable reverts to hot; answers are unchanged either way.
	if err := h.DisableColdTier(); err != nil {
		t.Fatal(err)
	}
	if h.ColdTierEnabled() {
		t.Fatal("ColdTierEnabled = true after disable")
	}
	got3, err := search(h, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Items {
		if want.Items[i] != got3.Items[i] {
			t.Fatalf("post-disable Search diverged at %d", i)
		}
	}
}
