package shard

import (
	"math/rand"
	"path/filepath"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
)

// buildDurableFixture builds a small durable index with the background
// checkpointer disabled (checkpoints are triggered explicitly).
func buildDurableFixture(t *testing.T, n int) (*Durable, [][]float64, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	points := genPoints(rng, n, 6)
	root := filepath.Join(t.TempDir(), "dur")
	dx, err := BuildDurable(bregman.SquaredEuclidean{}, points, root, DurableOptions{
		Shards:          2,
		Core:            core.Options{M: 2},
		CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dx, points, root
}

// TestDurableVersionSurvivesRecovery pins the Version contract across the
// durable lifecycle: Version() counts every mutation ever applied — on the
// live index, after a WAL-tail recovery, and after a checkpoint folds the
// tail into the snapshot — so the version the server reports never moves
// backwards and never names two different index states.
func TestDurableVersionSurvivesRecovery(t *testing.T) {
	dx, points, root := buildDurableFixture(t, 60)

	if got := dx.ix.Version(); got != 0 {
		t.Fatalf("fresh durable Version = %d, want 0", got)
	}
	// Mutate: 5 inserts + 1 delete = 6 WAL records.
	for i := 0; i < 5; i++ {
		if _, err := dx.Insert(points[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := dx.Delete(0); !ok || err != nil {
		t.Fatalf("Delete(0) = %v, %v", ok, err)
	}
	wantVer := uint64(6)
	if got := dx.ix.Version(); got != wantVer {
		t.Fatalf("live Version = %d, want %d", got, wantVer)
	}
	if err := dx.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL-recovered state (no checkpoint ran): replay must restore the
	// exact mutation count.
	dx2, err := OpenDurable(root, DurableOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := dx2.ix.Version(); got != wantVer {
		t.Fatalf("WAL-recovered Version = %d, want %d", got, wantVer)
	}

	// Checkpoint-folded state: the WAL is truncated, the snapshot's meta
	// LSN must seed Version on its own.
	if err := dx2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dx2.Insert(points[6]); err != nil { // one post-ckpt record
		t.Fatal(err)
	}
	wantVer++
	if err := dx2.Close(); err != nil {
		t.Fatal(err)
	}
	dx3, err := OpenDurable(root, DurableOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dx3.Close()
	if got := dx3.ix.Version(); got != wantVer {
		t.Fatalf("checkpoint-folded Version = %d, want %d (snapshot LSN must seed the counter)", got, wantVer)
	}
}

// TestDurableVersionCheckpointOverlap pins the staging-overlap case: a
// mutation that lands while the checkpoint snapshot is being staged is
// absorbed by the snapshot but carries an LSN past the checkpoint's. On
// recovery its WAL record is skipped idempotently — Version() must still
// count it (it is in the recovered state), or one version would name two
// different states.
func TestDurableVersionCheckpointOverlap(t *testing.T) {
	dx, points, root := buildDurableFixture(t, 60)
	for i := 0; i < 3; i++ {
		if _, err := dx.Insert(points[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Inject an insert between the checkpoint's LSN read and the snapshot
	// staging write: it is included in the snapshot with LSN ckpt+1.
	dx.ckptHook = func(stage string) {
		if stage == "checkpoint-begin" {
			dx.ckptHook = nil
			if _, err := dx.Insert(points[3]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantVer := dx.ix.Version() // 4 mutations
	if wantVer != 4 {
		t.Fatalf("pre-close Version = %d, want 4", wantVer)
	}
	if err := dx.Close(); err != nil {
		t.Fatal(err)
	}

	dx2, err := OpenDurable(root, DurableOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer dx2.Close()
	if got := dx2.ix.Version(); got != wantVer {
		t.Fatalf("recovered Version = %d, want %d (overlap echo must still count)", got, wantVer)
	}
	if got := dx2.ix.N(); got != 64 {
		t.Fatalf("recovered N = %d, want 64", got)
	}
}
