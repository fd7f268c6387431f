package shard

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestDurableCompactionKillPoints sweeps the crash windows compaction
// adds: a copy of the root is captured at every stage hook — before the
// swap, after the swap but before the folding checkpoint, and at each of
// the checkpoint's own internal stages — and each copy is recovered and
// oracle-compared. Compaction is logically invisible, so every window
// must recover to the same acknowledged state: the old layout or the new
// one, never a hybrid, never a lost tombstone.
func TestDurableCompactionKillPoints(t *testing.T) {
	const dim = 3
	d, m, root := buildDurTest(t, 12, dim)

	// Churn so the shards hold tombstones and tail inserts worth
	// compacting; every mutation is acknowledged and tracked.
	for i := 0; i < 18; i++ {
		if i%3 == 2 {
			victim := (i * 7) % d.ix.N()
			ok, err := d.Delete(victim)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				m.delete(victim)
			}
		} else {
			p := uniquePoint(8000+i, dim)
			if _, err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
			m.insert(p)
		}
	}
	decayed := false
	for _, h := range d.Health() {
		if h.Live < h.N || h.Tail > 0 {
			decayed = true
		}
	}
	if !decayed {
		t.Fatal("churn produced no decay; kill-point sweep is vacuous")
	}

	type snap struct {
		dir   string
		model *durModel
	}
	var snaps []snap
	snapRoot := t.TempDir()
	take := func(label string) {
		dir := filepath.Join(snapRoot, label)
		copyTree(t, root, dir)
		snaps = append(snaps, snap{dir: dir, model: m.clone()})
	}

	preWAL := d.WALSize()
	for s := 0; s < d.ix.Shards(); s++ {
		s := s
		d.ckptHook = func(stage string) { take(fmt.Sprintf("shard%d-%s", s, stage)) }
		st, err := d.CompactShard(s)
		if err != nil {
			t.Fatalf("CompactShard(%d): %v", s, err)
		}
		d.ckptHook = nil
		if st.Shard != s {
			t.Fatalf("stats for shard %d, asked for %d", st.Shard, s)
		}
	}
	// Compaction's folding checkpoint reclaims the churn's WAL bytes.
	if d.WALSize() >= preWAL {
		t.Fatalf("post-compaction checkpoint did not shrink the WAL: %d → %d",
			preWAL, d.WALSize())
	}
	for _, h := range d.Health() {
		if h.Live != h.N || h.Tail != 0 {
			t.Fatalf("shard %d still decayed after compaction: %+v", h.Shard, h)
		}
	}
	// Five hook stages per shard: compact-begin, compact-swapped, and the
	// checkpoint's begin/committed/truncated.
	if want := d.ix.Shards() * 5; len(snaps) != want {
		t.Fatalf("captured %d crash windows, want %d", len(snaps), want)
	}
	verifyAgainst(t, d, m, "live post-compaction")
	d.Close()

	// Every crash window recovers to the exact acknowledged state —
	// compaction never moves the logical index, so the model is the same
	// for all of them regardless of which layout the copy caught.
	for _, s := range snaps {
		r, err := OpenDurable(s.dir, durTestOptions())
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", filepath.Base(s.dir), err)
		}
		verifyAgainst(t, r, s.model, filepath.Base(s.dir))
		r.Close()
	}
}

// TestDurableCompactThenMutateAndRecover: life goes on after an online
// compaction — further acknowledged mutations recover exactly, and gone
// ids never resurface across the reopen.
func TestDurableCompactThenMutateAndRecover(t *testing.T) {
	const dim = 4
	d, m, root := buildDurTest(t, 16, dim)
	for i := 0; i < 8; i++ {
		victim := i * 2
		ok, err := d.Delete(victim)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			m.delete(victim)
		}
	}
	for s := 0; s < d.ix.Shards(); s++ {
		if _, err := d.CompactShard(s); err != nil {
			t.Fatal(err)
		}
	}
	ver := d.ix.Version()
	for i := 0; i < 10; i++ {
		p := uniquePoint(9000+i, dim)
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	if d.ix.Version() != ver+10 {
		t.Fatalf("Version %d after 10 post-compaction inserts on %d — not continuous",
			d.ix.Version(), ver)
	}
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, root, crash)
	d.Close()

	r, err := OpenDurable(crash, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyAgainst(t, r, m, "post-compaction mutations")
	for g := range m.points {
		if m.deleted[g] {
			if ok, err := r.Delete(g); ok || err != nil {
				t.Fatalf("gone id %d deletable after recovery: %v %v", g, ok, err)
			}
		}
	}
}
