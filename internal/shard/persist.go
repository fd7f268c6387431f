package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"brepartition/internal/bregman"
	"brepartition/internal/core"
)

// A sharded snapshot is a directory: one core index file per non-empty
// shard plus a manifest binding them together. The manifest records the
// shard count, divergence, the id maps, the tombstone set, and a CRC32 and
// size for every shard file, so a flipped byte or truncated file anywhere
// in the snapshot is detected before any shard is trusted. The manifest
// itself carries a trailing CRC32 like the core index format.
//
// Manifest layout (little-endian), file "manifest.bps":
//
//	magic u32 | version u32 | divergence string | shardCount u32
//	totalGlobal u32 (ids ever assigned) | coreM u32 (pinned partition count)
//	meta blob: metaLen u32 | metaLen bytes   (version ≥ 2 only)
//	per shard: present u8; when present:
//	    filename string | fileSize u64 | fileCRC u32
//	    localCount u32 | locToGlobal: localCount × global id u32
//	deletedCount u32 | deleted global ids u32...
//	crc32 of everything above
//
// The meta blob is opaque to this package: the durable layer stores its
// checkpoint LSN there, so the "which WAL records does this snapshot
// already contain" fact is committed by the same atomic rename as the
// snapshot itself — there is no window where they can disagree.
//
// WriteDir stages the whole snapshot in a sibling ".staging" directory and
// commits it with directory renames, so the destination path never holds a
// half-written snapshot: a crash mid-write leaves only the stale previous
// snapshot (or nothing) at dir, plus debris directories that the next
// WriteDir clears.
// Version 3 keeps the byte layout of version 2 but relaxes the ownership
// invariant: a tombstoned global id may be owned by no shard ("gone" — its
// point was reclaimed by compaction and the post-compaction checkpoint
// dropped it from the snapshot). Live ids must still be owned by exactly
// one shard, so tombstone GC and corruption stay distinguishable.
const (
	manifestName           = "manifest.bps"
	manifestMagic   uint32 = 0x5A4BD5E2
	manifestVer     uint32 = 3
	maxShardsOnDisk        = 1 << 16
	maxMetaBytes           = 1 << 16
)

// ErrBadSnapshot reports a structurally invalid or corrupt snapshot
// directory.
var ErrBadSnapshot = errors.New("shard: bad snapshot")

func shardFileName(s int) string { return fmt.Sprintf("shard-%04d.bpidx", s) }

// WriteDir persists the sharded index into directory dir, replacing any
// snapshot already there. It holds the id-map read lock for the whole
// write, so mutations quiesce and the snapshot is globally consistent;
// concurrent searches proceed untouched. Concurrent WriteDir calls
// serialize (they would otherwise race on the staging/commit paths).
// Staged files and the directories they live in are fsynced before the
// commit renames, so the guarantees hold across power loss, not just
// process crashes.
func (ix *Index) WriteDir(dir string) (err error) {
	return ix.WriteDirMeta(dir, nil)
}

// WriteDirMeta is WriteDir with an opaque meta blob (≤ 64 KiB) embedded in
// the manifest; ReadDirMeta returns it. The blob commits atomically with
// the snapshot — the durable layer's checkpoint LSN rides here.
func (ix *Index) WriteDirMeta(dir string, meta []byte) (err error) {
	if len(meta) > maxMetaBytes {
		return fmt.Errorf("shard: meta blob %d bytes exceeds %d", len(meta), maxMetaBytes)
	}
	ix.snapMu.Lock()
	defer ix.snapMu.Unlock()
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	staging := dir + ".staging"
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(staging) // no-op after a successful commit

	type fileInfo struct {
		size uint64
		crc  uint32
	}
	files := make([]fileInfo, len(ix.slots))
	for s, sl := range ix.slots {
		if sl == nil {
			continue
		}
		path := filepath.Join(staging, shardFileName(s))
		if err := sl.sub.WriteFile(path); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		size, crc, err := fileChecksum(path)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		files[s] = fileInfo{size: size, crc: crc}
	}

	var w manifestWriter
	w.u32(manifestMagic)
	w.u32(manifestVer)
	w.str(ix.div.Name())
	w.u32(uint32(len(ix.slots)))
	w.u32(uint32(len(ix.globalLoc)))
	// The pinned per-shard M travels with the snapshot: a reopened index
	// must materialize lazily created shards with the same partitioning
	// the original derived from the full dataset.
	w.u32(uint32(ix.opts.Core.M))
	w.u32(uint32(len(meta)))
	w.buf = append(w.buf, meta...)
	for s, sl := range ix.slots {
		if sl == nil {
			w.u8(0)
			continue
		}
		w.u8(1)
		w.str(shardFileName(s))
		w.u64(files[s].size)
		w.u32(files[s].crc)
		w.u32(uint32(len(sl.l2g)))
		for _, g := range sl.l2g {
			w.u32(uint32(g))
		}
	}
	w.u32(uint32(ix.nDeleted))
	for g, del := range ix.deleted {
		if del {
			w.u32(uint32(g))
		}
	}
	if err := os.WriteFile(filepath.Join(staging, manifestName), w.finish(), 0o644); err != nil {
		return err
	}

	// Flush everything staged to stable storage before any rename can
	// make it reachable: each staged file, then the staging directory
	// itself (its entries), so a power cut after commit cannot leave dir
	// pointing at zero-filled files.
	entries, err := os.ReadDir(staging)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if err := syncPath(filepath.Join(staging, ent.Name())); err != nil {
			return err
		}
	}
	if err := syncPath(staging); err != nil {
		return err
	}

	// Commit: move any existing snapshot aside, rename the staged one in,
	// then drop the old. Each step is a single rename, so dir is always
	// either absent, the old snapshot, or the new one — never a mix; the
	// parent directory is fsynced to persist the renames.
	old := dir + ".old"
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if _, serr := os.Stat(dir); serr == nil {
		if err := os.Rename(dir, old); err != nil {
			return err
		}
	}
	if err := os.Rename(staging, dir); err != nil {
		return err
	}
	if err := syncPath(filepath.Dir(dir)); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

// syncPath fsyncs a file or directory by path (a fresh descriptor flushes
// the inode's dirty pages regardless of which descriptor wrote them).
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// ReadDir loads a snapshot written by WriteDir. Every shard file is
// checked against the manifest's size and checksum before it is parsed,
// and the id maps are validated to be a permutation, so corruption
// anywhere fails the load with a descriptive error instead of serving a
// silently wrong index. opts supplies what a snapshot does not carry (Dim
// for one with no shard file, the core options later rebuilds use); shard
// count and core geometry come from the snapshot itself.
//
// When dir is absent but a complete previous snapshot sits at dir+".old"
// (a crash hit WriteDir's commit window between its two renames), ReadDir
// falls back to it, so the last good snapshot stays loadable.
func ReadDir(dir string, opts Options) (*Index, error) {
	ix, _, err := ReadDirMeta(dir, opts)
	return ix, err
}

// ReadDirMeta is ReadDir, additionally returning the opaque meta blob the
// snapshot was written with (nil for snapshots written by WriteDir or by
// the version-1 format).
func ReadDirMeta(dir string, opts Options) (*Index, []byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		if old, oerr := os.ReadFile(filepath.Join(dir+".old", manifestName)); oerr == nil {
			raw, err, dir = old, nil, dir+".old"
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if len(raw) < 4 {
		return nil, nil, fmt.Errorf("%w: manifest truncated", ErrBadSnapshot)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, nil, fmt.Errorf("%w: manifest checksum mismatch", ErrBadSnapshot)
	}
	r := &manifestReader{buf: body}
	if r.u32() != manifestMagic {
		return nil, nil, fmt.Errorf("%w: bad manifest magic", ErrBadSnapshot)
	}
	ver := r.u32()
	if ver < 1 || ver > manifestVer {
		return nil, nil, fmt.Errorf("%w: unsupported manifest version %d", ErrBadSnapshot, ver)
	}
	divName := r.str()
	div, err := bregman.ByName(divName)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	nShards := int(r.u32())
	totalGlobal := int(r.u32())
	coreM := int(r.u32())
	if r.err != nil || nShards <= 0 || nShards > maxShardsOnDisk || totalGlobal < 0 ||
		totalGlobal > len(body)/4 || coreM < 0 || coreM > 1<<20 {
		return nil, nil, fmt.Errorf("%w: bad manifest geometry", ErrBadSnapshot)
	}
	var meta []byte
	if ver >= 2 {
		n := int(r.u32())
		if r.err != nil || n < 0 || n > maxMetaBytes {
			return nil, nil, fmt.Errorf("%w: bad meta blob size", ErrBadSnapshot)
		}
		if n > 0 {
			meta = append([]byte(nil), r.take(n)...)
		}
		if r.err != nil {
			return nil, nil, fmt.Errorf("%w: truncated meta blob", ErrBadSnapshot)
		}
	}

	opts.Shards = nShards
	opts.Core.M = coreM
	opts = opts.withDefaults()
	ix := &Index{
		div:       div,
		opts:      opts,
		slots:     make([]*slot, nShards),
		globalLoc: make([]loc, totalGlobal),
		deleted:   make([]bool, totalGlobal),
	}
	seen := make([]bool, totalGlobal)
	for s := 0; s < nShards; s++ {
		if r.u8() == 0 {
			continue
		}
		name := r.str()
		wantSize := r.u64()
		wantCRC := r.u32()
		localCount := int(r.u32())
		if r.err != nil || localCount < 0 || localCount > totalGlobal {
			return nil, nil, fmt.Errorf("%w: bad shard %d map size", ErrBadSnapshot, s)
		}
		l2g := make([]int, localCount)
		for l := range l2g {
			g := int(r.u32())
			if r.err != nil || g < 0 || g >= totalGlobal || seen[g] {
				return nil, nil, fmt.Errorf("%w: shard %d maps invalid global id", ErrBadSnapshot, s)
			}
			seen[g] = true
			l2g[l] = g
			ix.globalLoc[g] = loc{shard: int32(s), local: int32(l)}
		}

		if name != shardFileName(s) {
			return nil, nil, fmt.Errorf("%w: shard %d names unexpected file %q", ErrBadSnapshot, s, name)
		}
		path := filepath.Join(dir, name)
		size, crc, err := fileChecksum(path)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: shard file %s: %v", ErrBadSnapshot, name, err)
		}
		if size != wantSize {
			return nil, nil, fmt.Errorf("%w: shard file %s: size %d, manifest says %d (truncated or overwritten)",
				ErrBadSnapshot, name, size, wantSize)
		}
		if crc != wantCRC {
			return nil, nil, fmt.Errorf("%w: shard file %s: checksum %08x, manifest says %08x (corrupt)",
				ErrBadSnapshot, name, crc, wantCRC)
		}
		sub, err := core.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: shard file %s: %v", ErrBadSnapshot, name, err)
		}
		if sub.N() != localCount {
			return nil, nil, fmt.Errorf("%w: shard file %s holds %d points, manifest maps %d",
				ErrBadSnapshot, name, sub.N(), localCount)
		}
		if sub.Div.Name() != divName {
			return nil, nil, fmt.Errorf("%w: shard file %s divergence %q, manifest says %q",
				ErrBadSnapshot, name, sub.Div.Name(), divName)
		}
		if ix.d == 0 {
			ix.d = sub.Dim()
		} else if sub.Dim() != ix.d {
			return nil, nil, fmt.Errorf("%w: shard file %s dimensionality %d, other shards have %d",
				ErrBadSnapshot, name, sub.Dim(), ix.d)
		}
		ix.slots[s] = &slot{sub: sub, l2g: l2g}
	}

	nDel := int(r.u32())
	if r.err != nil || nDel < 0 || nDel > totalGlobal {
		return nil, nil, fmt.Errorf("%w: bad tombstone count", ErrBadSnapshot)
	}
	for i := 0; i < nDel; i++ {
		g := int(r.u32())
		if r.err != nil || g < 0 || g >= totalGlobal || ix.deleted[g] {
			return nil, nil, fmt.Errorf("%w: invalid tombstone id", ErrBadSnapshot)
		}
		if seen[g] {
			// Re-arm the shard-local tombstone: the core file stores
			// deleted points with poisoned tuples and no tree presence,
			// but its own bitmap is not part of the core format.
			l := ix.globalLoc[g]
			ix.slots[l.shard].sub.Delete(int(l.local))
		} else {
			// Gone: a compaction reclaimed this tombstone's point, so no
			// shard owns it anymore (version ≥ 3 writes these).
			ix.globalLoc[g] = goneLoc
		}
		ix.deleted[g] = true
		ix.nDeleted++
	}
	// Every id must be accounted for: owned by exactly one shard, or a
	// compacted-away tombstone. An unowned live id is corruption.
	for g, ok := range seen {
		if !ok && !ix.deleted[g] {
			return nil, nil, fmt.Errorf("%w: global id %d owned by no shard", ErrBadSnapshot, g)
		}
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, r.err)
	}
	if r.off != len(r.buf) {
		return nil, nil, fmt.Errorf("%w: %d trailing manifest bytes", ErrBadSnapshot, len(r.buf)-r.off)
	}
	if ix.d == 0 {
		// A snapshot with no shard file (an index created empty, or one
		// whose every point was compacted away) carries nothing to attest
		// the dimensionality; the caller's declared Dim restores it so
		// Insert validates against the right width after reopen.
		ix.d = opts.Dim
	}
	return ix, meta, nil
}

// WriteFile persists a one-shard index as the single core index file that
// ReadFile loads back. Only an index whose global ids are its one core
// index's ids has that shape, and only one without tombstones, which the
// core format does not carry (a reloaded tombstone would count as live
// and reappear in a cold tier built over it); any other index writes a
// snapshot with WriteDir.
func (ix *Index) WriteFile(path string) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.slots) != 1 || ix.slots[0] == nil || len(ix.slots[0].l2g) != len(ix.globalLoc) {
		return fmt.Errorf("shard: WriteFile needs one shard owning every id (have %d shards); use WriteDir", len(ix.slots))
	}
	if ix.nDeleted > 0 {
		return fmt.Errorf("shard: WriteFile cannot record %d deleted ids; use WriteDir", ix.nDeleted)
	}
	return ix.slots[0].sub.WriteFile(path)
}

// ReadFile loads a core index file (core.WriteFile, Index.WriteFile) as a
// one-shard index whose global ids are the file's ids.
func ReadFile(path string) (*Index, error) {
	sub, err := core.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := sub.N()
	ix := &Index{div: sub.Div, d: sub.Dim(), opts: Options{Shards: 1, Core: core.Options{M: sub.M()}},
		globalLoc: make([]loc, n), deleted: make([]bool, n), version: sub.Version()}
	l2g := make([]int, n)
	for g := range l2g {
		l2g[g], ix.globalLoc[g] = g, loc{local: int32(g)}
	}
	ix.slots = []*slot{{sub: sub, l2g: l2g}}
	return ix, nil
}

// fileChecksum streams path once, returning its size and CRC32.
func fileChecksum(path string) (uint64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return uint64(n), h.Sum32(), nil
}

// manifestWriter accumulates the manifest body and appends the CRC tail.
type manifestWriter struct {
	buf []byte
}

func (w *manifestWriter) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *manifestWriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}
func (w *manifestWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}
func (w *manifestWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *manifestWriter) finish() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
}

type manifestReader struct {
	buf []byte
	off int
	err error
}

func (r *manifestReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *manifestReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *manifestReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *manifestReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *manifestReader) str() string {
	n := int(r.u32())
	if n < 0 || n > 1<<12 {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	b := r.take(n)
	return string(b)
}
