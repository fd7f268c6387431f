// Package-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (§9), all delegating to internal/experiments so that
// `go test -bench=.` regenerates the same rows `cmd/brebench` prints.
//
// Benchmarks use a reduced scale/query budget so the full suite completes
// in minutes; run cmd/brebench with -scale/-queries for bigger sweeps.
package brepartition_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"brepartition"
	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/dataset"
	"brepartition/internal/engine"
	"brepartition/internal/experiments"
	"brepartition/internal/obs"
)

// benchEnv is shared across benchmarks so dataset/index construction is
// amortized exactly like one brebench invocation.
var benchEnv *experiments.Env

func env() *experiments.Env {
	if benchEnv == nil {
		cfg := experiments.DefaultConfig()
		cfg.Scale = 0.25
		cfg.Queries = 5
		benchEnv = experiments.NewEnv(cfg)
	}
	return benchEnv
}

// sink prevents the compiler from eliding table construction; set
// BREPARTITION_BENCH_PRINT=1 to dump the regenerated tables.
func emit(b *testing.B, tables []experiments.Table) {
	b.Helper()
	var w io.Writer = io.Discard
	if os.Getenv("BREPARTITION_BENCH_PRINT") != "" {
		w = os.Stdout
	}
	for i := range tables {
		tables[i].Render(w)
	}
	if len(tables) == 0 {
		b.Fatal("experiment produced no tables")
	}
}

func BenchmarkTable4OptimalM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Table4())
	}
}

func BenchmarkFig7Construction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig7())
	}
}

func BenchmarkFig8PartitionsIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig8())
	}
}

func BenchmarkFig9PartitionsTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig9())
	}
}

func BenchmarkFig10PCCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig10())
	}
}

func BenchmarkFig11IOCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig11())
	}
}

func BenchmarkFig12RunningTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig12())
	}
}

func BenchmarkFig13Dimensionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig13())
	}
}

func BenchmarkFig14DataSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig14())
	}
}

func BenchmarkFig15Approximate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig15("normal"))
	}
}

func BenchmarkFig15ApproximateUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, env().Fig15("uniform"))
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the core operations (not tied to a specific figure
// but underpinning the running-time analysis of §5.1).
// ---------------------------------------------------------------------------

func benchIndex(b *testing.B, m, nq int) (*brepartition.Index, [][]float64) {
	b.Helper()
	spec, err := dataset.PaperSpec("audio", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.MustGenerate(spec)
	div, err := brepartition.DivergenceByName(ds.Divergence)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := brepartition.Build(div, ds.Points, &brepartition.Options{M: m})
	if err != nil {
		b.Fatal(err)
	}
	return idx, dataset.SampleQueries(ds, nq, 3)
}

func BenchmarkSearchM8(b *testing.B) {
	idx, queries := benchIndex(b, 8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(queries[i%len(queries)], 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchM32(b *testing.B) {
	idx, queries := benchIndex(b, 32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(queries[i%len(queries)], 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchApproxP08(b *testing.B) {
	idx, queries := benchIndex(b, 8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SearchApprox(queries[i%len(queries)], 20, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteForce(b *testing.B) {
	spec, _ := dataset.PaperSpec("audio", 0.1)
	ds := dataset.MustGenerate(spec)
	div, _ := brepartition.DivergenceByName(ds.Divergence)
	queries := dataset.SampleQueries(ds, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brepartition.BruteForce(div, ds.Points, queries[i%len(queries)], 20)
	}
}

func BenchmarkDistanceED192(b *testing.B) {
	div, _ := brepartition.DivergenceByName("ed")
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 192)
	y := make([]float64, 192)
	for j := range x {
		x[j] = -1 - rng.Float64()
		y[j] = -1 - rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brepartition.Distance(div, x, y)
	}
}

func BenchmarkBuildM16(b *testing.B) {
	spec, _ := dataset.PaperSpec("sift", 0.05)
	ds := dataset.MustGenerate(spec)
	div, _ := brepartition.DivergenceByName(ds.Divergence)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := brepartition.Build(div, ds.Points, &brepartition.Options{M: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Batch engine throughput: sequential Search loop vs. the concurrent
// engine at 1/4/8 workers. Compare ns/op across the variants to read the
// throughput multiple (BENCH_*.json trajectory); worker counts above
// GOMAXPROCS can't help, so run on a 4+ core machine to see the ≥2x.
// ---------------------------------------------------------------------------

func BenchmarkBatchSearchSequential(b *testing.B) {
	idx, queries := benchIndex(b, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := idx.Search(q, 20); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchmarkBatchWorkers(b *testing.B, workers int) {
	idx, queries := benchIndex(b, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.BatchSearch(queries, 20, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchSearchW1(b *testing.B) { benchmarkBatchWorkers(b, 1) }
func BenchmarkBatchSearchW4(b *testing.B) { benchmarkBatchWorkers(b, 4) }
func BenchmarkBatchSearchW8(b *testing.B) { benchmarkBatchWorkers(b, 8) }

// ---------------------------------------------------------------------------
// Sharded scatter-gather: the same 64-query batch against the 4-shard
// index. Compare BenchmarkShardedBatchSearch against BenchmarkBatchSearchW4
// (the acceptance bar: sharded batch throughput ≥ single-index batch
// throughput at N=4 shards); BenchmarkShardedSearch tracks the per-query
// scatter-gather overhead against BenchmarkSearchM8.
// ---------------------------------------------------------------------------

func benchShardedIndex(b *testing.B, shards, m, nq int) (*brepartition.Index, [][]float64) {
	b.Helper()
	spec, err := dataset.PaperSpec("audio", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.MustGenerate(spec)
	div, err := brepartition.DivergenceByName(ds.Divergence)
	if err != nil {
		b.Fatal(err)
	}
	sx, err := brepartition.BuildSharded(div, ds.Points, shards, &brepartition.Options{M: m})
	if err != nil {
		b.Fatal(err)
	}
	return sx, dataset.SampleQueries(ds, nq, 3)
}

func BenchmarkShardedBatchSearch(b *testing.B) {
	sx, queries := benchShardedIndex(b, 4, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sx.BatchSearch(queries, 20, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedSearch(b *testing.B) {
	sx, queries := benchShardedIndex(b, 4, 8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sx.Search(queries[i%len(queries)], 20); err != nil {
			b.Fatal(err)
		}
	}
}

// fmt is referenced so the import stays when emit's debug path is unused.
var _ = fmt.Sprintf

// ---------------------------------------------------------------------------
// Durable write path: per-mutation cost under the two extreme sync
// policies. BenchmarkDurableInsertSynced pays one (group-committable)
// fsync per insert; BenchmarkDurableInsertAsync shows the WAL append cost
// alone. The gap between them is the price of crash-durability per
// mutation; compare against BENCH_*.json to catch write-path regressions.
// ---------------------------------------------------------------------------

func benchDurable(b *testing.B, syncEvery int) *brepartition.Index {
	b.Helper()
	spec, err := dataset.PaperSpec("audio", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.MustGenerate(spec)
	div, err := brepartition.DivergenceByName(ds.Divergence)
	if err != nil {
		b.Fatal(err)
	}
	dx, err := brepartition.BuildDurable(div, ds.Points, b.TempDir(), &brepartition.DurableOptions{
		Core:            brepartition.Options{M: 8},
		SyncEvery:       syncEvery,
		CheckpointBytes: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dx.Close() })
	benchDurablePoint = ds.Points[0]
	return dx
}

var benchDurablePoint []float64

func BenchmarkDurableInsertSynced(b *testing.B) {
	dx := benchDurable(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dx.Insert(benchDurablePoint); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDurableInsertAsync(b *testing.B) {
	dx := benchDurable(b, -1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dx.Insert(benchDurablePoint); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Tracing overhead: the serving engine's one submission path with
// tracing off (nil trace — every untraced request's steady state) and on
// (a pooled trace recording queue/run/scan spans and work counters per
// query). The "off" ns/op must track the untraced submission cost — the
// nil-trace fast path is a handful of pointer checks — and "on" shows
// the full recording price a sampled request pays.
// ---------------------------------------------------------------------------

func benchTracedEngine(b *testing.B) (*engine.Engine, [][]float64) {
	b.Helper()
	spec, err := dataset.PaperSpec("audio", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.MustGenerate(spec)
	div, err := bregman.ByName(ds.Divergence)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.Build(div, ds.Points, core.Options{M: 8})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(idx, engine.Config{Workers: 1})
	b.Cleanup(func() { eng.Close() })
	return eng, dataset.SampleQueries(ds, 16, 3)
}

func BenchmarkTracedSearch(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		eng, queries := benchTracedEngine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SubmitQuery(core.Query{Vec: queries[i%len(queries)], K: 20}).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		eng, queries := benchTracedEngine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace(obs.NextID())
			if _, err := eng.SubmitQuery(core.Query{Vec: queries[i%len(queries)], K: 20, Trace: tr}).Wait(); err != nil {
				b.Fatal(err)
			}
			tr.Release()
		}
	})
}
