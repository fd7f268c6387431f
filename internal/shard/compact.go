package shard

import (
	"fmt"
	"time"

	"brepartition/internal/core"
)

// Shard maintenance: online compaction. A long-lived write-heavy shard
// decays in three ways — tombstones accumulate (dead tuples still scanned
// by the bound phase), insert-by-descent loosens BB-tree balls and deepens
// the trees, and post-build inserts land at the disk layout's tail away
// from their cluster neighbours, off the zero-copy block-refine path.
// CompactShard reverses all three at once by rebuilding the shard's core
// index over its live points off the hot path and swapping the fresh
// generation in.
//
// The swap protocol: snapshot the live set under the read lock, build the
// replacement index with no locks held (queries AND mutations proceed;
// mutations keep landing on the old generation), then take the write lock
// once, fold the mutations that raced the build into the new generation
// (catch-up), and install the new slot. Queries never block: an in-flight
// query that captured the old slot finishes — and translates its local
// ids — against the old generation, which the swap never touches.
//
// Compaction is logically invisible: the live point set, every global id,
// N(), Live(), and Version() are identical before and after (answers are
// bit-identical — same coordinates, same global-id tie-break), so nothing
// is written to the WAL. Tombstoned ids whose points the rebuild dropped
// become "gone" (owned by no shard); their tombstones persist in the
// manifest so recovery and replay stay idempotent, and the next
// checkpoint garbage-collects the reclaimed storage from disk.
type CompactStats struct {
	Shard int
	// Before and After count the ids resident in the shard around the
	// compaction (Before includes tombstones; After only what survived).
	Before, After int
	// Dropped counts tombstones compacted away (now gone ids).
	Dropped int
	// CatchUp counts inserts that raced the off-lock rebuild and were
	// folded into the new generation at swap time.
	CatchUp int
	// BuildTime is the off-lock core.Build wall time.
	BuildTime time.Duration
}

// ShardHealth is one shard's structural health — the maintainer's
// compaction-decision inputs.
type ShardHealth struct {
	Shard int
	// N counts ids resident in the shard, including shard-local
	// tombstones; Live counts the non-tombstoned ones.
	N, Live int
	// Tail counts points appended since the shard's last build: they sit
	// at the disk layout's tail, off the block-refine fast path.
	Tail int
	// TreeDepth is the deepest subspace BB-tree (insert-by-descent never
	// rebalances, so drift past the built depth signals looseness).
	TreeDepth int
}

// LiveRatio returns Live/N (1 for an empty shard).
func (h ShardHealth) LiveRatio() float64 {
	if h.N == 0 {
		return 1
	}
	return float64(h.Live) / float64(h.N)
}

// TailRatio returns Tail/N (0 for an empty shard).
func (h ShardHealth) TailRatio() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Tail) / float64(h.N)
}

// Health snapshots every shard's structural health.
func (ix *Index) Health() []ShardHealth {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]ShardHealth, len(ix.slots))
	for s, sl := range ix.slots {
		out[s] = ShardHealth{Shard: s}
		if sl == nil {
			continue
		}
		out[s].N = len(sl.l2g)
		out[s].Live = sl.sub.Live()
		out[s].Tail = sl.sub.TailLen()
		out[s].TreeDepth = sl.sub.MaxTreeDepth()
	}
	return out
}

// CompactShard rebuilds shard s over its live points (core.Build, honoring
// Options.Core.BuildWorkers) and swaps the fresh generation in. Queries
// never block: the build runs with no locks held and the swap is one
// write-lock critical section that in-flight queries don't take. See the
// file comment for the full protocol and invariants. Compactions
// serialize with each other; an out-of-range shard errors, an empty one
// is a cheap no-op.
func (ix *Index) CompactShard(s int) (CompactStats, error) {
	ix.compactMu.Lock()
	defer ix.compactMu.Unlock()

	// Phase 1 — snapshot the live set under the read lock. Point rows are
	// immutable once appended, so holding their slices across the unlock
	// is safe; the l2g prefix we captured can only grow.
	ix.mu.RLock()
	if s < 0 || s >= len(ix.slots) {
		ix.mu.RUnlock()
		return CompactStats{}, fmt.Errorf("shard: compact: no shard %d", s)
	}
	old := ix.slots[s]
	if old == nil {
		ix.mu.RUnlock()
		return CompactStats{Shard: s}, nil
	}
	snapN := len(old.l2g)
	liveLocals := make([]int, 0, snapN)
	livePoints := make([][]float64, 0, snapN)
	for l := 0; l < snapN; l++ {
		if !ix.deleted[old.l2g[l]] {
			liveLocals = append(liveLocals, l)
			livePoints = append(livePoints, old.sub.Points[l])
		}
	}
	copts := ix.opts.Core
	ix.mu.RUnlock()

	// Phase 2 — rebuild off the hot path: no locks held, searches and
	// mutations proceed against the old generation throughout.
	var newSub *core.Index
	var buildTime time.Duration
	if len(livePoints) > 0 {
		start := time.Now()
		sub, err := core.Build(ix.div, livePoints, copts)
		if err != nil {
			return CompactStats{Shard: s}, fmt.Errorf("shard: compact %d: %w", s, err)
		}
		newSub = sub
		buildTime = time.Since(start)
	}

	// Phase 3 — catch up and swap under the write lock. Only CompactShard
	// replaces slots (serialized by compactMu) and Insert only fills nil
	// ones, so the slot is still the generation we snapshotted.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	cur := ix.slots[s]
	curN := len(cur.l2g)
	stats := CompactStats{Shard: s, Before: curN, BuildTime: buildTime}

	// Fold in the inserts that raced the build — every fallible step runs
	// before any published state changes, so an error aborts with the old
	// generation fully intact (the discarded newSub absorbs the damage).
	type pending struct{ g, local int }
	catchUp := make([]pending, 0, curN-snapN)
	for l := snapN; l < curN; l++ {
		g := cur.l2g[l]
		if ix.deleted[g] {
			continue
		}
		row := cur.sub.Points[l]
		if newSub == nil {
			sub, err := ix.materialize(row)
			if err != nil {
				return CompactStats{Shard: s}, fmt.Errorf("shard: compact %d: %w", s, err)
			}
			newSub = sub
			catchUp = append(catchUp, pending{g: g, local: 0})
			continue
		}
		local, err := newSub.Insert(row)
		if err != nil {
			return CompactStats{Shard: s}, fmt.Errorf("shard: compact %d: %w", s, err)
		}
		catchUp = append(catchUp, pending{g: g, local: local})
	}
	stats.CatchUp = len(catchUp)

	// Commit. Snapshot-live points keep their relative order, catch-up
	// points append after them — both subsequences of ascending global
	// ids, so the new l2g is strictly increasing and the exact-merge
	// invariant holds for the new generation.
	newL2G := make([]int, 0, len(liveLocals)+len(catchUp))
	for i, l := range liveLocals {
		g := cur.l2g[l]
		newL2G = append(newL2G, g)
		ix.globalLoc[g] = loc{shard: int32(s), local: int32(i)}
		if ix.deleted[g] {
			// Deleted while the build ran: the rebuild resurrected it, so
			// re-arm the tombstone in the new generation.
			newSub.Delete(i)
		}
	}
	for _, p := range catchUp {
		newL2G = append(newL2G, p.g)
		ix.globalLoc[p.g] = loc{shard: int32(s), local: int32(p.local)}
	}
	// Everything resident before but absent from the new generation is a
	// reclaimed tombstone: deleted before the snapshot, or inserted and
	// deleted again while the build ran. (Snapshot-live points deleted
	// during the build stay resident — as tombstones — until the next
	// compaction.)
	liveIdx := 0
	for l := 0; l < curN; l++ {
		if l < snapN {
			if liveIdx < len(liveLocals) && liveLocals[liveIdx] == l {
				liveIdx++
				continue // survived into the new generation
			}
		} else if !ix.deleted[cur.l2g[l]] {
			continue // catch-up insert, survived
		}
		ix.globalLoc[cur.l2g[l]] = goneLoc
		stats.Dropped++
	}
	if newSub == nil {
		ix.slots[s] = nil
	} else {
		ix.slots[s] = &slot{sub: newSub, l2g: newL2G}
	}
	stats.After = len(newL2G)
	// Version is deliberately NOT bumped: the live set, ids, and answers
	// are unchanged, so Version stays continuous across compactions.
	return stats, nil
}
