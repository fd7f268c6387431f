package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/wal"
)

// --- harness scaffolding --------------------------------------------------

// durModel is the in-memory oracle: the exact state the durable index must
// recover to after a crash — the acknowledged mutation prefix.
type durModel struct {
	points  [][]float64 // by global id, including tombstoned
	deleted map[int]bool
}

func newDurModel(points [][]float64) *durModel {
	m := &durModel{deleted: map[int]bool{}}
	for _, p := range points {
		m.points = append(m.points, append([]float64(nil), p...))
	}
	return m
}

func (m *durModel) insert(p []float64) int {
	m.points = append(m.points, append([]float64(nil), p...))
	return len(m.points) - 1
}

func (m *durModel) delete(g int) { m.deleted[g] = true }

func (m *durModel) clone() *durModel {
	c := newDurModel(m.points)
	for g := range m.deleted {
		c.deleted[g] = true
	}
	return c
}

// fingerprint identifies a model state: every mutation either grows the id
// space or the tombstone set, so (N, deleted) pins the exact prefix.
func (m *durModel) fingerprint() string {
	ids := make([]byte, len(m.points))
	for g := range ids {
		if m.deleted[g] {
			ids[g] = 'x'
		} else {
			ids[g] = '.'
		}
	}
	return fmt.Sprintf("%d:%s", len(m.points), ids)
}

func durFingerprint(d *Durable) string {
	ids := make([]byte, d.ix.N())
	for g := range ids {
		if d.ix.Deleted(g) {
			ids[g] = 'x'
		} else {
			ids[g] = '.'
		}
	}
	return fmt.Sprintf("%d:%s", d.ix.N(), ids)
}

// verifyAgainst checks the recovered index serves exactly the model's
// state: same id space, same tombstones, and each live point findable at
// distance zero under its own id.
func verifyAgainst(t *testing.T, d *Durable, m *durModel, label string) {
	t.Helper()
	if got, want := durFingerprint(d), m.fingerprint(); got != want {
		t.Fatalf("%s: recovered state %q, want %q", label, got, want)
	}
	for g, p := range m.points {
		if m.deleted[g] {
			continue
		}
		res, err := d.Search(p, 1)
		if err != nil {
			t.Fatalf("%s: search id %d: %v", label, g, err)
		}
		if len(res.Items) == 0 || res.Items[0].ID != g || res.Items[0].Score != 0 {
			t.Fatalf("%s: live id %d not served exactly: %+v", label, g, res.Items)
		}
	}
}

// copyTree snapshots a durable root directory — the crash simulator: the
// copy holds exactly the bytes a kill -9 would leave behind (we only copy
// while no write is in flight, so OS-buffer-vs-disk differences don't
// apply; physical fsync ordering is internal/wal's and WriteDir's job).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// uniquePoint makes deterministic, mutually distinct points so distance-0
// identification is unambiguous.
func uniquePoint(i, dim int) []float64 {
	p := make([]float64, dim)
	for j := range p {
		p[j] = float64(i*dim+j) + 0.25
	}
	return p
}

func durTestOptions() DurableOptions {
	return DurableOptions{
		Shards:          3,
		Core:            core.Options{M: 2, Seed: 7},
		SegmentSize:     512, // force seals mid-workload
		CheckpointBytes: -1,  // manual checkpoints only
	}
}

func buildDurTest(t *testing.T, n, dim int) (*Durable, *durModel, string) {
	t.Helper()
	root := filepath.Join(t.TempDir(), "dur")
	points := make([][]float64, n)
	for i := range points {
		points[i] = uniquePoint(i, dim)
	}
	d, err := BuildDurable(bregman.SquaredEuclidean{}, points, root, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, newDurModel(points), root
}

// --- basic lifecycle ------------------------------------------------------

func TestDurableBuildMutateCloseOpen(t *testing.T) {
	d, m, root := buildDurTest(t, 24, 4)
	for i := 0; i < 30; i++ {
		if i%4 == 3 {
			victim := (i * 5) % d.ix.N()
			ok, err := d.Delete(victim)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				m.delete(victim)
			}
		} else {
			p := uniquePoint(1000+i, 4)
			g, err := d.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.insert(p); g != want {
				t.Fatalf("insert assigned %d, model says %d", g, want)
			}
		}
	}
	verifyAgainst(t, d, m, "pre-close")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(root, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyAgainst(t, r, m, "post-reopen")

	// The reopened index keeps mutating durably on the same LSN chain.
	p := uniquePoint(5000, 4)
	g, err := r.Insert(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.insert(p); g != want {
		t.Fatalf("post-recovery insert assigned %d, want %d", g, want)
	}
	verifyAgainst(t, r, m, "post-recovery-mutation")
}

func TestDurableCrashRecoveryWithoutClose(t *testing.T) {
	d, m, root := buildDurTest(t, 16, 4)
	defer d.Close()
	for i := 0; i < 20; i++ {
		p := uniquePoint(2000+i, 4)
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	// No Close: the process "dies". Every mutation was acknowledged under
	// SyncEvery=1, so the copy must recover all of them.
	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, root, crash)
	r, err := OpenDurable(crash, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyAgainst(t, r, m, "kill -9 recovery")
}

func TestDurableCheckpointBoundsRecovery(t *testing.T) {
	d, m, root := buildDurTest(t, 16, 4)
	for i := 0; i < 15; i++ {
		p := uniquePoint(3000+i, 4)
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	preSize := d.WALSize()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.WALSize() >= preSize {
		t.Fatalf("checkpoint did not shrink the WAL: %d → %d", preSize, d.WALSize())
	}
	// Post-checkpoint mutations land in the (short) WAL tail.
	for i := 0; i < 5; i++ {
		p := uniquePoint(4000+i, 4)
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	d.Close()
	r, err := OpenDurable(root, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyAgainst(t, r, m, "post-checkpoint recovery")
}

// --- the kill-point harness ----------------------------------------------

// TestDurableKillPoints is the crash-window sweep the acceptance criteria
// name: a deterministic mutation stream with a crash-copy captured after
// every acknowledged mutation, at every internal checkpoint stage, and
// with the WAL tail truncated at every byte boundary and flipped at every
// byte — each copy recovered and oracle-compared against the in-memory
// model. Acknowledged-synced mutations must always survive; truncation
// beyond them must recover a clean prefix; flips must be rejected, never
// absorbed.
func TestDurableKillPoints(t *testing.T) {
	const (
		dim       = 3
		nBuild    = 10
		mutations = 26
	)
	d, m, root := buildDurTest(t, nBuild, dim)

	// Crash-copy after every acknowledged mutation; each must recover to
	// exactly the model at that instant (append + seal stages: the tiny
	// SegmentSize forces seals inside this stream).
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

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < mutations; i++ {
		if i%5 == 4 {
			victim := rng.Intn(d.ix.N())
			ok, err := d.Delete(victim)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				m.delete(victim)
			}
		} else {
			p := uniquePoint(7000+i, dim)
			if _, err := d.Insert(p); err != nil {
				t.Fatal(err)
			}
			m.insert(p)
		}
		take(fmt.Sprintf("mut-%02d", i))

		// Mid-stream checkpoint with a copy at every internal stage:
		// before the snapshot commits, after it commits but before the
		// WAL truncates (idempotent-replay overlap), and after truncate.
		if i == mutations/2 {
			d.ckptHook = func(stage string) { take("ckpt-" + stage) }
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			d.ckptHook = nil
		}
	}
	d.Close()

	for _, s := range snaps {
		r, err := OpenDurable(s.dir, durTestOptions())
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", filepath.Base(s.dir), err)
		}
		verifyAgainst(t, r, s.model, filepath.Base(s.dir))
		r.Close()
	}

	// Tail truncation sweep over the final state: cut the newest WAL
	// segment at every byte boundary. Recovery must yield some exact
	// model prefix — never an error, never a non-prefix state — and the
	// recovered prefix must shrink monotonically with deeper cuts.
	finalDir := filepath.Join(snapRoot, "final")
	copyTree(t, root, finalDir)
	prefixes := map[string]bool{}
	for _, s := range snaps {
		prefixes[s.model.fingerprint()] = true
	}
	// Model states between copies (initial build state) count too.
	prefixes[newDurModel(nil).fingerprint()] = true
	base := newDurModel(nil)
	for i := 0; i < nBuild; i++ {
		base.insert(uniquePoint(i, dim))
	}
	prefixes[base.fingerprint()] = true

	segs, err := filepath.Glob(filepath.Join(finalDir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in final copy: %v", err)
	}
	newest := segs[len(segs)-1]
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	prevN := -1
	for cut := len(full); cut >= 0; cut-- {
		work := filepath.Join(snapRoot, "cutwork")
		os.RemoveAll(work)
		copyTree(t, finalDir, work)
		if err := os.WriteFile(filepath.Join(work, "wal", filepath.Base(newest)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(work, durTestOptions())
		if err != nil {
			t.Fatalf("cut=%d: torn tail must recover, got %v", cut, err)
		}
		fp := durFingerprint(r)
		if !prefixes[fp] {
			t.Fatalf("cut=%d: recovered %q is not an acknowledged prefix", cut, fp)
		}
		if prevN >= 0 && r.ix.N() > prevN {
			t.Fatalf("cut=%d: deeper cut recovered MORE state (%d > %d ids)", cut, r.ix.N(), prevN)
		}
		prevN = r.ix.N()
		r.Close()
	}

	// Flip sweep: every byte of the newest segment, one at a time. A flip
	// is not a tear — recovery must reject it (or, for bytes past the
	// last valid record, at worst recover a clean prefix; it must never
	// serve a state that was not an acknowledged prefix).
	for off := 0; off < len(full); off++ {
		work := filepath.Join(snapRoot, "flipwork")
		os.RemoveAll(work)
		copyTree(t, finalDir, work)
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x20
		if err := os.WriteFile(filepath.Join(work, "wal", filepath.Base(newest)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenDurable(work, durTestOptions())
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) && !errors.Is(err, ErrRecovery) {
				t.Fatalf("flip@%d: undescriptive error %v", off, err)
			}
			continue
		}
		fp := durFingerprint(r)
		r.Close()
		if !prefixes[fp] {
			t.Fatalf("flip@%d: recovery absorbed corruption into non-prefix state %q", off, fp)
		}
	}

	// A flip inside a sealed (non-newest) segment must always be rejected.
	if len(segs) > 1 {
		sealed := segs[0]
		buf, err := os.ReadFile(sealed)
		if err != nil {
			t.Fatal(err)
		}
		work := filepath.Join(snapRoot, "sealflip")
		copyTree(t, finalDir, work)
		mut := append([]byte(nil), buf...)
		mut[len(mut)/2] ^= 0x11
		if err := os.WriteFile(filepath.Join(work, "wal", filepath.Base(sealed)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDurable(work, durTestOptions()); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("sealed-segment flip: want wal.ErrCorrupt, got %v", err)
		}
	}
}

// TestDurableSnapshotCrashWindows exercises the checkpoint commit windows
// WriteDir leaves behind: staging debris and the renamed-away .old copy.
func TestDurableSnapshotCrashWindows(t *testing.T) {
	d, m, root := buildDurTest(t, 12, 4)
	for i := 0; i < 8; i++ {
		p := uniquePoint(6000+i, 4)
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Crash mid-stage: a half-written .staging directory next to a good
	// snapshot must be ignored.
	work := filepath.Join(t.TempDir(), "staging-debris")
	copyTree(t, root, work)
	staging := filepath.Join(work, snapSubdir+".staging")
	if err := os.MkdirAll(staging, 0o755); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(staging, manifestName), []byte("partial"), 0o644)
	r, err := OpenDurable(work, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainst(t, r, m, "staging debris")
	r.Close()

	// Crash between WriteDir's two commit renames: only snapshot.old
	// exists. ReadDirMeta's fallback must kick in; the WAL tail replays
	// on top of the older checkpoint state.
	work2 := filepath.Join(t.TempDir(), "old-window")
	copyTree(t, root, work2)
	if err := os.Rename(filepath.Join(work2, snapSubdir), filepath.Join(work2, snapSubdir+".old")); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenDurable(work2, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainst(t, r2, m, ".old fallback")
	r2.Close()
}

// TestDurableConcurrentGroupCommit hammers the mutation path from many
// goroutines (the group-commit fast path), then crash-copies and recovers:
// every acknowledged insert must survive with its exact point. Run under
// -race this is also the locking proof for the WAL/durable composition.
func TestDurableConcurrentGroupCommit(t *testing.T) {
	const (
		dim        = 3
		goroutines = 6
		perG       = 15
	)
	d, _, root := buildDurTest(t, 8, dim)

	type acked struct {
		id int
		p  []float64
	}
	var mu sync.Mutex
	var all []acked
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := uniquePoint(10000+g*1000+i, dim)
				id, err := d.Insert(p)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				all = append(all, acked{id: id, p: p})
				mu.Unlock()
				// Interleave concurrent reads against the mutating index.
				if i%5 == 0 {
					if _, err := d.Search(p, 2); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	crash := filepath.Join(t.TempDir(), "crash")
	copyTree(t, root, crash)
	d.Close()

	r, err := OpenDurable(crash, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.ix.N() != 8+goroutines*perG {
		t.Fatalf("recovered %d ids, want %d", r.ix.N(), 8+goroutines*perG)
	}
	for _, a := range all {
		res, err := r.Search(a.p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Items) == 0 || res.Items[0].ID != a.id || res.Items[0].Score != 0 {
			t.Fatalf("acknowledged insert id %d lost after crash: %+v", a.id, res.Items)
		}
	}
}

// TestDurableBackgroundCheckpointer lets the size-triggered checkpointer
// run and checks the WAL stays bounded while recovery stays exact.
func TestDurableBackgroundCheckpointer(t *testing.T) {
	root := filepath.Join(t.TempDir(), "dur")
	points := make([][]float64, 8)
	for i := range points {
		points[i] = uniquePoint(i, 4)
	}
	opts := durTestOptions()
	opts.CheckpointBytes = 2048 // trigger often
	d, err := BuildDurable(bregman.SquaredEuclidean{}, points, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := newDurModel(points)
	for i := 0; i < 120; i++ {
		p := uniquePoint(20000+i, 4)
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
		m.insert(p)
	}
	if err := d.Checkpoint(); err != nil { // also surfaces background errors
		t.Fatal(err)
	}
	if size := d.WALSize(); size > opts.CheckpointBytes*4 {
		t.Fatalf("WAL grew unbounded despite checkpointer: %d bytes", size)
	}
	d.Close()
	r, err := OpenDurable(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyAgainst(t, r, m, "background checkpointer")
}

func TestDurableRejectsBadInput(t *testing.T) {
	d, m, _ := buildDurTest(t, 8, 4)
	defer d.Close()
	pre := d.LastLSN()
	if _, err := d.Insert([]float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if ok, err := d.Delete(-1); ok || err != nil {
		t.Fatalf("no-op delete: %v %v", ok, err)
	}
	if ok, err := d.Delete(10_000); ok || err != nil {
		t.Fatalf("no-op delete: %v %v", ok, err)
	}
	if d.LastLSN() != pre {
		t.Fatal("rejected mutations must not write WAL records")
	}
	verifyAgainst(t, d, m, "after rejected mutations")
}
