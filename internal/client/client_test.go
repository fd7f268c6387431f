package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/server"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

func testPoints(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		base := 1.0 + 2*float64(i%5)
		for j := range p {
			p[j] = base + rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func fixture(t *testing.T, cfg server.Config) (*httptest.Server, *core.Index, [][]float64) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "durable")
	pts := testPoints(280, 9, 5)
	opts := shard.DurableOptions{Shards: 3, Core: core.Options{M: 3, Seed: 2}, CheckpointBytes: -1}
	d, err := shard.BuildDurable(bregman.ItakuraSaito{}, pts, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := shard.NewHandle(d)
	oracle, err := core.Build(bregman.ItakuraSaito{}, pts, core.Options{M: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(h, func() (*shard.Durable, error) { return shard.OpenDurable(root, opts) }, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); h.Close() })
	return ts, oracle, pts
}

func wantItems(t *testing.T, oracle *core.Index, q []float64, k int) []wire.Item {
	t.Helper()
	res, err := oracle.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wire.Item, len(res.Items))
	for i, it := range res.Items {
		out[i] = wire.Item{ID: it.ID, Distance: it.Score}
	}
	return out
}

// TestClientBothProtocolsOracle drives the full client surface over JSON
// and binary and pins the answers to the in-process oracle.
func TestClientBothProtocolsOracle(t *testing.T) {
	ts, oracle, pts := fixture(t, server.Config{})
	queries := testPoints(6, 9, 33)
	ctx := context.Background()
	const k = 5

	for _, binary := range []bool{false, true} {
		c := New(ts.URL, Options{Binary: binary})
		defer c.Close()

		for _, q := range queries {
			got, err := c.Collection(wire.DefaultCollection).Search(ctx, q, k)
			if err != nil {
				t.Fatalf("binary=%v: %v", binary, err)
			}
			if want := wantItems(t, oracle, q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("binary=%v: search drifted\ngot  %+v\nwant %+v", binary, got, want)
			}
		}

		batch, err := c.Collection(wire.DefaultCollection).BatchSearch(ctx, queries, k)
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if len(batch) != len(queries) {
			t.Fatalf("binary=%v: %d batch results", binary, len(batch))
		}
		for i, q := range queries {
			if want := wantItems(t, oracle, q, k); !reflect.DeepEqual(batch[i].Items, want) {
				t.Fatalf("binary=%v: batch query %d drifted", binary, i)
			}
		}

		if got, err := c.Collection(wire.DefaultCollection).SearchApprox(ctx, queries[0], k, 1); err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		} else if want := wantItems(t, oracle, queries[0], k); !reflect.DeepEqual(got, want) {
			t.Fatalf("binary=%v: approx p=1 drifted", binary)
		}

		ritems, _, err := oracle.RangeSearch(queries[0], 2.0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Collection(wire.DefaultCollection).RangeSearch(ctx, queries[0], 2.0)
		if err != nil {
			t.Fatalf("binary=%v: %v", binary, err)
		}
		if len(got) != len(ritems) {
			t.Fatalf("binary=%v: range %d items, want %d", binary, len(got), len(ritems))
		}

		// Bad input surfaces the server's message, not a silent empty.
		if _, err := c.Collection(wire.DefaultCollection).Search(ctx, queries[0][:2], k); err == nil {
			t.Fatalf("binary=%v: bad-dim search succeeded", binary)
		}
	}

	// Mutations (JSON client) round-trip with health and admin.
	c := New(ts.URL, Options{})
	defer c.Close()
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != len(pts) || h.Dim != 9 {
		t.Fatalf("health: %+v", h)
	}
	id, err := c.Collection(wire.DefaultCollection).Insert(ctx, pts[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != len(pts) {
		t.Fatalf("insert id = %d, want %d", id, len(pts))
	}
	deleted, err := c.Collection(wire.DefaultCollection).Delete(ctx, id)
	if err != nil || !deleted {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	if ar, err := c.Checkpoint(ctx); err != nil || ar.Version != uint64(2) {
		t.Fatalf("checkpoint: %+v %v", ar, err)
	}
	if ar, err := c.Reload(ctx); err != nil || ar.Version != uint64(2) {
		t.Fatalf("reload: %+v %v", ar, err)
	}
	// Post-reload searches still match.
	if got, err := c.Collection(wire.DefaultCollection).Search(ctx, queries[0], k); err != nil {
		t.Fatal(err)
	} else if want := wantItems(t, oracle, queries[0], k); !reflect.DeepEqual(got, want) {
		t.Fatal("post-reload search drifted")
	}

	// Binary mutations too.
	cb := New(ts.URL, Options{Binary: true})
	defer cb.Close()
	id2, err := cb.Collection(wire.DefaultCollection).Insert(ctx, pts[1])
	if err != nil {
		t.Fatal(err)
	}
	if deleted, err := cb.Collection(wire.DefaultCollection).Delete(ctx, id2); err != nil || !deleted {
		t.Fatalf("binary delete: %v %v", deleted, err)
	}
}

// TestClientOverloadTyped pins the 429 contract: ErrOverloaded matches,
// and the Retry-After hint is carried.
func TestClientOverloadTyped(t *testing.T) {
	// A stub that always sheds keeps this deterministic.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer stub.Close()
	c := New(stub.URL, Options{})
	defer c.Close()
	_, err := c.Collection(wire.DefaultCollection).Search(context.Background(), []float64{1}, 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter hint lost: %v", err)
	}
}

// TestClientDeadlineTyped pins the 504 mapping.
func TestClientDeadlineTyped(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
		w.Write([]byte(`{"error":"deadline"}`))
	}))
	defer stub.Close()
	c := New(stub.URL, Options{})
	defer c.Close()
	if _, err := c.Collection(wire.DefaultCollection).Search(context.Background(), []float64{1}, 1); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
}
