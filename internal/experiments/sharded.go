package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"brepartition/internal/core"
	"brepartition/internal/dataset"
	"brepartition/internal/engine"
	"brepartition/internal/shard"
)

// Sharded measures the sharded layer against the single index: one
// batch of queries through the single-index engine versus the sharded
// index at `shards` hash partitions, plus the snapshot round trip
// (WriteDir/ReadDir wall time and on-disk size). It extends the paper's
// evaluation toward the horizontally partitioned serving setting; the
// answers are verified identical before anything is timed.
func (e *Env) Sharded(workers, batchSize, shards int) []Table {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if batchSize <= 0 {
		batchSize = 256
	}
	if shards <= 0 {
		shards = 4
	}
	k := e.cfg.Ks[0]

	var tables []Table
	for _, name := range []string{"audio", "uniform"} {
		ds := e.Dataset(name)
		ix := e.BP(name)
		queries := dataset.SampleQueries(ds, batchSize, e.cfg.Seed+13)

		buildStart := time.Now()
		sx, err := shard.Build(e.divergence(ds), ds.Points, shard.Options{
			Shards: shards,
			Core: core.Options{
				M:    ix.M(), // same partition count as the measured single index
				Tree: e.treeCfg(),
				Disk: e.diskCfg(ds),
				Seed: e.cfg.Seed,
			},
		})
		if err != nil {
			panic(fmt.Sprintf("sharded(%s): %v", name, err))
		}
		shardedBuild := time.Since(buildStart)

		// Correctness gate before timing: sharded answers must equal the
		// single index's bit for bit.
		for i, q := range queries {
			if i >= 16 {
				break
			}
			want, err := ix.Search(q, k)
			if err != nil {
				panic(err)
			}
			got, err := sx.Search(q, k)
			if err != nil {
				panic(err)
			}
			for r := range want.Items {
				if got.Items[r] != want.Items[r] {
					panic(fmt.Sprintf("sharded(%s) query %d rank %d: %v != %v",
						name, i, r, got.Items[r], want.Items[r]))
				}
			}
		}

		tbl := Table{
			Title: fmt.Sprintf("Sharded fork-join — %s (batch=%d, k=%d, N=%d shards, live sizes=%v)",
				name, batchSize, k, shards, sx.ShardLiveSizes()),
			Header: []string{"mode", "wall", "QPS", "pageReads", "speedup"},
		}

		eng := engine.New(ix, engine.Config{Workers: workers})
		singleStart := time.Now()
		if _, err := eng.BatchSearch(queries, k); err != nil {
			panic(fmt.Sprintf("sharded(%s) single engine: %v", name, err))
		}
		singleWall := time.Since(singleStart)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("single index, engine w=%d", workers),
			fmtDur(singleWall),
			fmt.Sprintf("%.0f", float64(batchSize)/singleWall.Seconds()),
			fmt.Sprintf("%d", eng.Stats().PageReads),
			"1.00x",
		})

		shardedStart := time.Now()
		// The same worker count as the single index; each query runs its
		// shards itself.
		results, err := engine.New(sx, engine.Config{Workers: workers}).BatchSearch(queries, k)
		if err != nil {
			panic(fmt.Sprintf("sharded(%s) batch: %v", name, err))
		}
		shardedWall := time.Since(shardedStart)
		var shardedReads int64
		for _, r := range results {
			shardedReads += int64(r.Stats.PageReads)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("sharded ×%d, engine w=%d", shards, workers),
			fmtDur(shardedWall),
			fmt.Sprintf("%.0f", float64(batchSize)/shardedWall.Seconds()),
			fmt.Sprintf("%d", shardedReads),
			fmt.Sprintf("%.2fx", singleWall.Seconds()/shardedWall.Seconds()),
		})
		tables = append(tables, tbl)

		// Snapshot round trip.
		dir, err := os.MkdirTemp("", "brebench-shard-*")
		if err != nil {
			panic(err)
		}
		snapDir := filepath.Join(dir, "snap")
		writeStart := time.Now()
		if err := sx.WriteDir(snapDir); err != nil {
			panic(fmt.Sprintf("sharded(%s) WriteDir: %v", name, err))
		}
		writeWall := time.Since(writeStart)
		var bytes int64
		entries, _ := os.ReadDir(snapDir)
		for _, ent := range entries {
			if info, err := ent.Info(); err == nil {
				bytes += info.Size()
			}
		}
		readStart := time.Now()
		if _, err := shard.ReadDir(snapDir, shard.Options{}); err != nil {
			panic(fmt.Sprintf("sharded(%s) ReadDir: %v", name, err))
		}
		readWall := time.Since(readStart)
		os.RemoveAll(dir)

		tables = append(tables, Table{
			Title:  fmt.Sprintf("Sharded snapshot — %s (%d shards)", name, shards),
			Header: []string{"op", "wall", "bytes", "note"},
			Rows: [][]string{
				{"build (all shards)", fmtDur(shardedBuild), "-", "cost model pinned from full dataset"},
				{"WriteDir", fmtDur(writeWall), fmt.Sprintf("%d", bytes), "manifest + per-shard files, atomic rename"},
				{"ReadDir", fmtDur(readWall), fmt.Sprintf("%d", bytes), "checksums verified before trusting any shard"},
			},
		})
	}
	return tables
}
