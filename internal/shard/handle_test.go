package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
)

// handlePoints builds a deterministic in-domain point set.
func handlePoints(n, d int, seed int64) [][]float64 {
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

func buildHandle(t *testing.T, n int) (*Handle, string, DurableOptions, [][]float64) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "durable")
	pts := handlePoints(n, 12, 11)
	opts := DurableOptions{
		Shards:          3,
		Core:            core.Options{M: 4, Seed: 2},
		CheckpointBytes: -1, // checkpoints come from reloads only
	}
	d, err := BuildDurable(bregman.ItakuraSaito{}, pts, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewHandle(d), root, opts, pts
}

// TestHandleReloadUnderLoad pins the swap protocol's core promise:
// concurrent searches across repeated hot reloads return bit-identical
// answers to the pre-reload index, no query is dropped, and Version plus
// the write path survive every swap. Run with -race in CI.
func TestHandleReloadUnderLoad(t *testing.T) {
	h, root, opts, pts := buildHandle(t, 400)
	defer h.Close()

	const k = 5
	queries := handlePoints(16, 12, 99)
	want := make([]core.Result, len(queries))
	for i, q := range queries {
		res, err := search(h, q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	verBefore := h.Version()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % len(queries)
				res, err := search(h, queries[qi], k)
				if err != nil {
					errc <- fmt.Errorf("search during reload: %w", err)
					return
				}
				if !reflect.DeepEqual(res.Items, want[qi].Items) {
					errc <- fmt.Errorf("answer drifted across reload for query %d", qi)
					return
				}
			}
		}(w)
	}

	open := func() (*Durable, error) { return OpenDurable(root, opts) }
	for r := 0; r < 4; r++ {
		if err := h.Reload(open); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if got := h.Version(); got != verBefore {
		t.Fatalf("Version not continuous across reloads: %d -> %d", verBefore, got)
	}
	if h.Err() != nil {
		t.Fatalf("healthy handle reports Err: %v", h.Err())
	}

	// The write path survived the swaps: a durable insert lands in the new
	// generation and is immediately searchable.
	id, err := h.Insert(pts[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := search(h, pts[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].Score != 0 {
		t.Fatalf("inserted point not found at distance 0: %+v", res.Items[0])
	}
	if res.Items[0].ID != id && !h.Deleted(res.Items[0].ID) {
		// pts[0] is already indexed as id 0, so distance 0 may match either
		// copy; both must be live.
		if res.Items[0].ID != 0 {
			t.Fatalf("distance-0 hit is neither copy: %+v", res.Items[0])
		}
	}
	if got := h.Version(); got != verBefore+1 {
		t.Fatalf("Version after insert = %d, want %d", got, verBefore+1)
	}

	// And the state survives a final close + reopen from disk.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	nd, err := OpenDurable(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if nd.ix.N() != len(pts)+1 || nd.ix.Version() != verBefore+1 {
		t.Fatalf("reopened: N=%d version=%d, want %d/%d", nd.ix.N(), nd.ix.Version(), len(pts)+1, verBefore+1)
	}
}

// TestHandleDegradedReload pins the failure contract: when reopen fails
// after the old WAL closed, reads keep working, writes fail, Err is
// sticky, and a later successful Reload recovers the handle.
func TestHandleDegradedReload(t *testing.T) {
	h, root, opts, pts := buildHandle(t, 120)
	defer h.Close()

	boom := errors.New("boom")
	if err := h.Reload(func() (*Durable, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Reload err = %v, want wrapped boom", err)
	}
	if h.Err() == nil {
		t.Fatal("degraded handle reports no Err")
	}
	// Reads still serve from the old in-memory generation.
	if _, err := search(h, pts[0], 3); err != nil {
		t.Fatalf("read path down while degraded: %v", err)
	}
	// Writes fail cleanly (closed WAL), not silently.
	if _, err := h.Insert(pts[0]); err == nil {
		t.Fatal("insert succeeded against a closed generation")
	}

	// Recovery: a later Reload with a working opener skips the (already
	// done) checkpoint/close of the degraded generation, swaps in a fresh
	// one, and clears Err.
	if err := h.Reload(func() (*Durable, error) { return OpenDurable(root, opts) }); err != nil {
		t.Fatalf("recovery Reload: %v", err)
	}
	if h.Err() != nil {
		t.Fatalf("Err still set after recovery: %v", h.Err())
	}
	if _, err := h.Insert(pts[1]); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}
