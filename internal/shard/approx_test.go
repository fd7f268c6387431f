package shard

import (
	"errors"
	"reflect"
	"testing"

	"brepartition/internal/approx"
	"brepartition/internal/bregman"
	"brepartition/internal/core"
)

// TestShardedSearchApprox pins the sharded approximate search: p = 1
// degenerates to exact search bit-identically, p < 1 keeps high recall
// against the exact answer (the per-shard guarantee composition), and
// invalid guarantees are rejected.
func TestShardedSearchApprox(t *testing.T) {
	pts := handlePoints(500, 10, 21)
	sx, err := Build(bregman.ItakuraSaito{}, pts, Options{Shards: 4, Core: core.Options{M: 4, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	queries := handlePoints(12, 10, 77)
	const k = 8

	for _, q := range queries {
		want, err := sx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := searchApprox(sx, q, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatalf("p=1 approx != exact\ngot  %v\nwant %v", got.Items, want.Items)
		}
	}

	// p = 0.8: at least 80% expected recall; on this easy workload the
	// realized recall is far higher — gate loosely to stay robust.
	hits, total := 0, 0
	for _, q := range queries {
		want, _ := sx.Search(q, k)
		got, err := searchApprox(sx, q, k, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		exact := map[int]bool{}
		for _, it := range want.Items {
			exact[it.ID] = true
		}
		for _, it := range got.Items {
			if exact[it.ID] {
				hits++
			}
		}
		total += len(want.Items)
	}
	if recall := float64(hits) / float64(total); recall < 0.6 {
		t.Fatalf("p=0.8 recall %.2f below sanity floor", recall)
	}

	for _, p := range []float64{0, -0.5, 1.5} {
		if _, err := searchApprox(sx, queries[0], k, p); !errors.Is(err, approx.ErrGuarantee) {
			t.Fatalf("p=%v: err = %v, want ErrGuarantee", p, err)
		}
	}
	if _, err := searchApprox(sx, queries[0], 0, 1); !errors.Is(err, core.ErrK) {
		t.Fatalf("k=0: err = %v, want ErrK", err)
	}
	if _, err := searchApprox(sx, queries[0][:3], k, 1); !errors.Is(err, core.ErrDim) {
		t.Fatalf("bad dim: err = %v, want ErrDim", err)
	}
}
