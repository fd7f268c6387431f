package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/topk"
	"brepartition/internal/wal"
)

// Durable wraps a sharded Index with a write-ahead log and a background
// checkpointer, turning the index from a rebuildable artifact into a
// storage system: every Insert/Delete is framed into the WAL *before* it
// touches the index, acknowledged according to the sync policy (group
// commit amortizes the fsyncs), and recovered by OpenDurable as snapshot +
// WAL-tail replay after a crash.
//
// Directory layout under the durable root:
//
//	root/wal/       — LSN-named log segments (see internal/wal)
//	root/snapshot/  — a shard snapshot whose manifest meta blob records
//	                  the checkpoint LSN (WriteDirMeta commits both
//	                  atomically); root/snapshot.old is WriteDir's
//	                  crash-window fallback, exactly as before
//
// Recovery invariant: the snapshot contains every mutation with LSN ≤ its
// meta LSN (usually more — mutations that landed while the snapshot was
// being staged). Replay is idempotent: an insert record whose global id
// the index already assigned is a checkpoint-overlap echo and is skipped;
// deletes re-apply harmlessly. The first insert record that would skip a
// global id proves log loss and fails recovery instead of guessing.
type Durable struct {
	ix   *Index
	wal  *wal.WAL
	opts DurableOptions

	// dmu serializes mutations so WAL append order equals index apply
	// order — the invariant replay depends on. Fsyncs happen outside dmu,
	// so the lock is held only for the in-memory append + apply.
	dmu    sync.Mutex
	broken error // sticky: a post-append apply failure desynced WAL and index

	snapDir string

	ckptMu   sync.Mutex // one checkpoint at a time
	ckptHook func(stage string)

	trigger chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup

	closeMu sync.Mutex
	closed  bool

	bgMu    sync.Mutex
	bgCkErr error // last background checkpoint failure, surfaced by Checkpoint/Close
}

// DurableOptions configures a durable index.
type DurableOptions struct {
	// Shards, Dim, Core configure the underlying sharded index exactly
	// as Options does (Dim permits building or opening an empty index
	// whose dimensionality no snapshot can yet attest).
	Shards int
	Dim    int
	Core   core.Options

	// SyncEvery and SyncInterval set the WAL durability policy (see
	// wal.Options): 0/1 fsyncs every mutation (group-committed), N > 1
	// every N mutations, negative only on SyncInterval/Sync/Close.
	SyncEvery    int
	SyncInterval time.Duration

	// SegmentSize is the WAL segment roll threshold (0 = 8 MiB).
	SegmentSize int64

	// CheckpointBytes triggers a background checkpoint when the WAL
	// passes this size (0 = 32 MiB; negative disables the background
	// checkpointer — call Checkpoint explicitly).
	CheckpointBytes int64
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 32 << 20
	}
	return o
}

func (o DurableOptions) walOptions() wal.Options {
	return wal.Options{
		SegmentSize:  o.SegmentSize,
		SyncEvery:    o.SyncEvery,
		SyncInterval: o.SyncInterval,
	}
}

func (o DurableOptions) shardOptions() Options {
	return Options{Shards: o.Shards, Dim: o.Dim, Core: o.Core}
}

// ErrRecovery reports an unrecoverable durable directory: the snapshot and
// WAL disagree in a way replay refuses to paper over.
var ErrRecovery = errors.New("shard: durable recovery")

const (
	walSubdir  = "wal"
	snapSubdir = "snapshot"
	metaMagic  = uint32(0x57414C31) // "WAL1"
)

// encodeCkptMeta frames the checkpoint LSN for the manifest meta blob,
// with its own CRC so a decoding bug can't silently misread it.
func encodeCkptMeta(lsn uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:4], metaMagic)
	binary.LittleEndian.PutUint64(buf[4:12], lsn)
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(buf[0:12]))
	return buf
}

func decodeCkptMeta(meta []byte) (uint64, error) {
	if len(meta) != 16 ||
		binary.LittleEndian.Uint32(meta[0:4]) != metaMagic ||
		crc32.ChecksumIEEE(meta[0:12]) != binary.LittleEndian.Uint32(meta[12:16]) {
		return 0, fmt.Errorf("%w: snapshot carries no valid checkpoint LSN", ErrRecovery)
	}
	return binary.LittleEndian.Uint64(meta[4:12]), nil
}

// BuildDurable builds a sharded index over points, writes its initial
// snapshot, and opens the WAL, all under root (created if needed). The
// returned index is fully durable from the first mutation on.
func BuildDurable(div bregman.Divergence, points [][]float64, root string, opts DurableOptions) (*Durable, error) {
	opts = opts.withDefaults()
	ix, err := Build(div, points, opts.shardOptions())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	snapDir := filepath.Join(root, snapSubdir)
	// The build itself is checkpoint LSN 0: the snapshot holds every
	// point, the (empty) WAL starts at LSN 1.
	if err := ix.WriteDirMeta(snapDir, encodeCkptMeta(0)); err != nil {
		return nil, err
	}
	w, err := wal.Create(filepath.Join(root, walSubdir), opts.walOptions())
	if err != nil {
		return nil, err
	}
	return newDurable(ix, w, snapDir, opts), nil
}

// OpenDurable recovers a durable index from root: it loads the newest
// valid snapshot (falling back to the .old crash-window copy exactly as
// OpenSharded does), replays the WAL tail past the snapshot's checkpoint
// LSN, and reopens the WAL for appending. A torn record at the WAL's tail
// — the footprint of a crash mid-append — is dropped; everything the WAL
// holds intact past the checkpoint is reapplied, so every mutation whose
// sync was acknowledged survives. Corruption anywhere else fails with a
// descriptive error rather than serving a silently incomplete index.
func OpenDurable(root string, opts DurableOptions) (*Durable, error) {
	opts = opts.withDefaults()
	snapDir := filepath.Join(root, snapSubdir)
	ix, meta, err := ReadDirMeta(snapDir, opts.shardOptions())
	if err != nil {
		return nil, fmt.Errorf("durable snapshot: %w", err)
	}
	ckptLSN, err := decodeCkptMeta(meta)
	if err != nil {
		return nil, err
	}

	// Track the newest mutation the recovered state contains so Version()
	// can be seeded below. Every WAL record is one mutation, so the final
	// version equals the last intact record's LSN (the checkpoint LSN when
	// the tail is empty) — the same value the pre-crash index reported.
	// Seeding cannot rely on counting replay side effects: records the
	// snapshot already absorbed (checkpoint staging overlap) are skipped
	// idempotently, yet their mutations ARE in the recovered state.
	lastLSN := ckptLSN

	walDir := filepath.Join(root, walSubdir)
	err = wal.Replay(walDir, ckptLSN+1, func(rec wal.Record) error {
		if rec.LSN > lastLSN {
			lastLSN = rec.LSN
		}
		switch rec.Op {
		case wal.OpInsert:
			switch {
			case rec.ID < ix.N():
				// Checkpoint overlap: the snapshot was staged after this
				// record applied. Idempotent skip.
				return nil
			case rec.ID > ix.N():
				return fmt.Errorf("%w: wal lsn %d inserts id %d but index has only %d ids (lost records?)",
					ErrRecovery, rec.LSN, rec.ID, ix.N())
			}
			got, err := ix.Insert(rec.Point)
			if err != nil {
				return fmt.Errorf("%w: replaying lsn %d: %v", ErrRecovery, rec.LSN, err)
			}
			if got != rec.ID {
				return fmt.Errorf("%w: replay assigned id %d, wal lsn %d says %d",
					ErrRecovery, got, rec.LSN, rec.ID)
			}
		case wal.OpDelete:
			if rec.ID < 0 || rec.ID >= ix.N() {
				return fmt.Errorf("%w: wal lsn %d deletes unknown id %d", ErrRecovery, rec.LSN, rec.ID)
			}
			ix.Delete(rec.ID) // false = already tombstoned: idempotent
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Seed the mutation counter: without this a checkpoint-folded state
	// would reopen at Version 0 (or, with staging overlap, below the
	// pre-crash value), and the Version the server reports would move
	// backwards across a restart.
	ix.mu.Lock()
	ix.version = lastLSN
	ix.mu.Unlock()

	w, err := wal.Open(walDir, ckptLSN+1, opts.walOptions())
	if err != nil {
		return nil, err
	}
	return newDurable(ix, w, snapDir, opts), nil
}

func newDurable(ix *Index, w *wal.WAL, snapDir string, opts DurableOptions) *Durable {
	d := &Durable{ix: ix, wal: w, opts: opts, snapDir: snapDir}
	if opts.CheckpointBytes > 0 {
		d.trigger = make(chan struct{}, 1)
		d.stop = make(chan struct{})
		d.wg.Add(1)
		go d.checkpointLoop()
	}
	return d
}

// checkpointLoop drains checkpoint triggers; failures are remembered and
// surfaced by the next explicit Checkpoint or Close.
func (d *Durable) checkpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.trigger:
			if err := d.Checkpoint(); err != nil {
				d.bgMu.Lock()
				d.bgCkErr = err
				d.bgMu.Unlock()
			}
		case <-d.stop:
			return
		}
	}
}

// maybeTriggerCheckpoint nudges the background checkpointer when the WAL
// has outgrown the threshold; never blocks the mutation path.
func (d *Durable) maybeTriggerCheckpoint() {
	if d.trigger == nil || d.wal.Size() < d.opts.CheckpointBytes {
		return
	}
	select {
	case d.trigger <- struct{}{}:
	default:
	}
}

// Insert logs the point, applies it to the owning shard, and returns its
// global id. With the default sync policy the record is fsynced (group
// commit) before Insert returns; an Insert that returns an error is NOT
// guaranteed absent after recovery — only nil-error mutations are
// acknowledged.
func (d *Durable) Insert(p []float64) (int, error) {
	d.dmu.Lock()
	if d.broken != nil {
		d.dmu.Unlock()
		return 0, d.broken
	}
	// Validate everything the index would reject *before* logging, so the
	// apply after the WAL append cannot fail on bad input.
	if len(p) != d.ix.Dim() {
		d.dmu.Unlock()
		return 0, core.DimError(len(p), d.ix.Dim())
	}
	if err := bregman.CheckDomain(d.ix.Divergence(), p); err != nil {
		d.dmu.Unlock()
		return 0, err
	}
	g := d.ix.N()
	lsn, err := d.wal.Append(wal.OpInsert, g, p)
	if err != nil {
		d.dmu.Unlock()
		return 0, err
	}
	got, err := d.ix.Insert(p)
	if err != nil || got != g {
		// The WAL now holds a record the index does not: the two are
		// desynced and every later id assignment would disagree with the
		// log. Refuse all further mutations; recovery replays the log.
		if err == nil {
			err = fmt.Errorf("shard: durable insert assigned id %d, expected %d", got, g)
		}
		d.broken = fmt.Errorf("shard: durable index desynced (recover from disk): %w", err)
		d.dmu.Unlock()
		return 0, d.broken
	}
	d.dmu.Unlock()

	if _, err := d.wal.Ack(lsn); err != nil {
		return g, err
	}
	d.maybeTriggerCheckpoint()
	return g, nil
}

// Delete logs and applies a tombstone for global id g, reporting whether
// it was live. A no-op delete (unknown or already-deleted id) writes no
// record.
func (d *Durable) Delete(g int) (bool, error) {
	d.dmu.Lock()
	if d.broken != nil {
		d.dmu.Unlock()
		return false, d.broken
	}
	if g < 0 || g >= d.ix.N() || d.ix.Deleted(g) {
		d.dmu.Unlock()
		return false, nil
	}
	lsn, err := d.wal.Append(wal.OpDelete, g, nil)
	if err != nil {
		d.dmu.Unlock()
		return false, err
	}
	if !d.ix.Delete(g) {
		d.broken = fmt.Errorf("shard: durable index desynced (recover from disk): delete %d raced", g)
		d.dmu.Unlock()
		return false, d.broken
	}
	d.dmu.Unlock()

	if _, err := d.wal.Ack(lsn); err != nil {
		return true, err
	}
	d.maybeTriggerCheckpoint()
	return true, nil
}

// Sync fsyncs the WAL through the last appended mutation: after Sync
// returns, every mutation ever acknowledged is crash-durable regardless of
// the sync policy.
func (d *Durable) Sync() error { return d.wal.Sync() }

// Checkpoint snapshots the index through the WAL's current last LSN,
// commits the snapshot (meta-tagged with that LSN) atomically, then
// truncates WAL segments the snapshot covers. Mutations quiesce only for
// the staging write (the same WriteDir window as before); searches
// proceed throughout. Bounded recovery time is the product: replay work
// after a crash is at most the log written since the last checkpoint.
func (d *Durable) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	// Surface any prior background-checkpoint failure rather than let it
	// rot silently.
	d.bgMu.Lock()
	bgErr := d.bgCkErr
	d.bgCkErr = nil
	d.bgMu.Unlock()
	if bgErr != nil {
		return bgErr
	}

	// Under dmu no mutation is between append and apply, so the index
	// state contains every record with LSN ≤ lastLSN — the snapshot may
	// gain later mutations while staging, which idempotent replay absorbs.
	d.dmu.Lock()
	lsn := d.wal.LastLSN()
	d.dmu.Unlock()
	d.hook("checkpoint-begin")

	if err := d.ix.WriteDirMeta(d.snapDir, encodeCkptMeta(lsn)); err != nil {
		return err
	}
	d.hook("snapshot-committed")

	if err := d.wal.TruncateBefore(lsn + 1); err != nil {
		return err
	}
	d.hook("truncated")
	return nil
}

func (d *Durable) hook(stage string) {
	if d.ckptHook != nil {
		d.ckptHook(stage)
	}
}

// CompactShard rebuilds shard s over its live points off the hot path
// (Index.CompactShard: queries never block, Version is untouched) and
// folds the result into a checkpoint: the post-compaction snapshot drops
// the reclaimed tombstones from the manifest and TruncateBefore reclaims
// the WAL segments the snapshot covers.
//
// Durability: compaction itself writes nothing — it is logically
// invisible, so the WAL needs no record of it. A crash at any point
// recovers a consistent index: before the checkpoint's atomic snapshot
// rename the disk still holds the pre-compaction shard (replay reproduces
// the old state), after it the compacted one — never a hybrid, because
// the only disk transition is WriteDirMeta's single rename.
func (d *Durable) CompactShard(s int) (CompactStats, error) {
	d.hook("compact-begin")
	st, err := d.ix.CompactShard(s)
	if err != nil {
		return st, err
	}
	d.hook("compact-swapped")
	if err := d.Checkpoint(); err != nil {
		return st, fmt.Errorf("shard: post-compaction checkpoint: %w", err)
	}
	return st, nil
}

// Health snapshots every shard's structural health.
func (d *Durable) Health() []ShardHealth { return d.ix.Health() }

// Close stops the background checkpointer, fsyncs outstanding records,
// and closes the WAL. The directory remains openable with OpenDurable.
func (d *Durable) Close() error {
	d.closeMu.Lock()
	defer d.closeMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.stop != nil {
		close(d.stop)
		d.wg.Wait()
	}
	err := d.wal.Close()
	if cerr := d.ix.CloseColdTier(); err == nil && cerr != nil {
		err = cerr
	}
	d.bgMu.Lock()
	if err == nil && d.bgCkErr != nil {
		err = d.bgCkErr
	}
	d.bgMu.Unlock()
	return err
}

// LastLSN returns the highest appended WAL LSN.
func (d *Durable) LastLSN() uint64 { return d.wal.LastLSN() }

// SyncedLSN returns the highest WAL LSN known durable.
func (d *Durable) SyncedLSN() uint64 { return d.wal.SyncedLSN() }

// WALSize returns the live WAL bytes (the checkpoint trigger metric).
func (d *Durable) WALSize() int64 { return d.wal.Size() }

// --- read path: straight delegation to the sharded index -----------------

// Index returns the sharded index the durable layer logs mutations for;
// read through it, mutate through the Durable.
func (d *Durable) Index() *Index { return d.ix }

// Query answers q from the sharded index; durability adds nothing to a
// read (see Index.Query).
func (d *Durable) Query(dst []topk.Item, q *core.Query) (core.Result, error) {
	return d.ix.Query(dst, q)
}

// Search returns the exact k nearest neighbours of q across all shards.
func (d *Durable) Search(q []float64, k int) (core.Result, error) {
	return d.ix.Query(nil, &core.Query{Vec: q, K: k})
}
