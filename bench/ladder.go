package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"brepartition/internal/bbforest"
	"brepartition/internal/bbtree"
	"brepartition/internal/core"
	"brepartition/internal/disk"
	"brepartition/internal/engine"
	"brepartition/internal/kernel"
	"brepartition/internal/obs"
	"brepartition/internal/partition"
	"brepartition/internal/scan"
	"brepartition/internal/server"
	"brepartition/internal/shard"
	"brepartition/internal/topk"
	"brepartition/internal/wal"
	"brepartition/internal/wire"
)

const (
	// serveSliceN caps the points the serving rungs (shard, engine, wal,
	// wire, client, server) index: they need three more builds, which at
	// the hot workloads' full size would not fit a traced run's time.
	serveSliceN = 1500
	// geodesicReps is how many bisection steps one geodesic sample times.
	geodesicReps = 200
	// codecReps is how many encode/decode round trips one codec sample times.
	codecReps = 200
	// walCommits and walReplayed size the two WAL rungs.
	walCommits  = 50
	walReplayed = 2000
	// shardInserts are timed through Durable.Insert, then deleted again.
	shardInserts = 30
	// ladderLoadOps is each client's operations in the ladder's load run,
	// the serve-mixed mix in miniature.
	ladderLoadOps = 300
	// openRounds is how many times the durable root is re-opened.
	openRounds = 3
)

// ladder runs the per-layer rungs of a traced run: direct calls into each
// layer's public functions with the workload's own points and queries,
// timed from here. Time rungs are medians over the ladder queries.
type ladder struct {
	w       workload
	d       *data
	cix     *core.Index
	res     *result
	rec     *recorder
	work    string
	queries [][]float64
	block   kernel.FlatBlock
	sink    float64
}

func newLadder(w workload, d *data, cix *core.Index, cfg config, res *result, rec *recorder) *ladder {
	return &ladder{
		w: w, d: d, cix: cix, res: res, rec: rec, work: cfg.work,
		queries: d.queries[:min(w.ladderQ, len(d.queries))],
		block:   kernel.Flatten(d.points),
	}
}

// each times fn once per ladder query, under one span per call, and
// returns the durations in milliseconds.
func (l *ladder) each(name string, queries [][]float64, fn func(i int, q []float64)) []float64 {
	out := make([]float64, len(queries))
	for i, q := range queries {
		sp := l.rec.begin(i, name, -1)
		t0 := time.Now()
		fn(i, q)
		out[i] = ms(time.Since(t0))
		l.rec.end(sp)
	}
	return out
}

// searchRung times a search surface once per ladder query and checks
// every answer, outside the timed interval, against a scan over block.
func (l *ladder) searchRung(name string, block kernel.FlatBlock, fn func(q []float64) ([]topk.Item, error)) []float64 {
	out := make([]float64, len(l.queries))
	for i, q := range l.queries {
		sp := l.rec.begin(i, name, -1)
		t0 := time.Now()
		items, err := fn(q)
		out[i] = ms(time.Since(t0))
		l.rec.end(sp)
		l.check(err == nil && sameItems(items, scan.KNNBlock(l.d.kern, block, q, k)), "ladder query %d: %s differs from the scan (err %v)", i, name, err)
	}
	return out
}

// once times a single call in seconds, under a span.
func (l *ladder) once(name string, fn func() error) (float64, error) {
	sp := l.rec.begin(-1, name, -1)
	t0 := time.Now()
	err := fn()
	secs := time.Since(t0).Seconds()
	l.rec.end(sp)
	return secs, err
}

// check counts one verified operation of the ladder.
func (l *ladder) check(ok bool, format string, args ...any) {
	l.res.Attempted++
	if !ok {
		l.res.fail(format, args...)
	}
}

// allocsPer runs fn n times and returns the heap allocations and bytes
// per call, counted over the whole process.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func (l *ladder) run() error {
	l.kernelRungs()
	for _, rungs := range []func() error{l.coreRungs, l.buildRungs, l.coldRungs, l.wireRungs, l.walRungs, l.serveRungs} {
		// Collect the previous group's garbage now, so that no rung is
		// timed while the collector clears up after another.
		runtime.GC()
		if err := rungs(); err != nil {
			return err
		}
	}
	l.insertRung()
	return nil
}

func (l *ladder) kernelRungs() {
	kern, n := l.d.kern, len(l.d.points)
	out := make([]float64, n)
	t := l.each("kernel.block", l.queries, func(_ int, q []float64) { kern.DistancesTo(q, l.block, out) })
	l.res.set("kernel.block_ns_per_point", median(t)*1e6/float64(n))

	// One geodesic sample is geodesicReps fused steps between the query
	// and one indexed point, the inner loop of the BB-tree bound.
	dim := l.d.dim
	gq, gmu, scratch := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	var samples []float64
	for i, q := range l.queries {
		mu := l.d.points[i]
		kern.GradVec(gq, q)
		kern.GradVec(gmu, mu)
		t0 := time.Now()
		for r := 0; r < geodesicReps; r++ {
			dq, dmu, _ := kern.GeodesicStep(gq, gmu, q, mu, float64(r+1)/float64(geodesicReps+1), scratch)
			l.sink += dq + dmu
		}
		samples = append(samples, float64(time.Since(t0))/geodesicReps)
	}
	l.res.set("kernel.geodesic_step_ns", median(samples))

	t = l.each("scan.knn_block", l.queries, func(_ int, q []float64) {
		l.sink += float64(len(scan.KNNBlock(kern, l.block, q, k)))
	})
	l.res.set("scan.knn_block_ms", median(t))
}

// coreRungs times the whole search and then replays its three stages —
// bounds, candidate union, refinement — as direct calls with the same
// inputs; what the whole takes beyond the replayed stages is core's glue.
func (l *ladder) coreRungs() error {
	cix, n := l.cix, float64(len(l.d.points))
	// Each query appends into its own buffer, so that the timed call is
	// the allocation-free path and its answer is still there afterwards.
	results := make([]core.Result, len(l.queries))
	for i := range results {
		results[i].Items = make([]topk.Item, 0, k)
	}
	next := 0
	searchMs := l.searchRung("core.search", l.block, func(q []float64) ([]topk.Item, error) {
		res, err := cix.SearchAppend(results[next].Items, q, k)
		results[next] = res
		next++
		return res.Items, err
	})
	var filter, refine time.Duration
	var cands, comps, nodes, leaves float64
	for _, r := range results {
		filter += r.Stats.FilterTime
		refine += r.Stats.RefineTime
		cands += float64(r.Stats.Candidates)
		comps += float64(r.Stats.DistanceComps)
		nodes += float64(r.Stats.NodesVisited)
		leaves += float64(r.Stats.LeavesVisited)
	}
	nq := float64(len(l.queries))
	l.res.set("core.build_s", cix.BuildTime.Seconds())
	l.res.set("core.search_ms", median(searchMs))
	l.res.set("core.filter_share", float64(filter)/float64(filter+refine))
	l.res.set("core.candidates_share", cands/nq/n)
	l.res.set("core.distance_comps_per_point", comps/nq/n)
	l.res.set("bbforest.nodes_visited", nodes/nq)
	l.res.set("bbforest.leaves_visited", leaves/nq)
	l.res.set("bbforest.max_tree_depth", float64(cix.MaxTreeDepth()))

	// The replay runs the stages back to back per query, refinement in the
	// session the candidate union filled, as the search itself does.
	store := cix.Forest.Store
	sess := store.NewSession()
	var scratch bbforest.SearchScratch
	nq0 := len(l.queries)
	boundsMs, candMs, refineMs := make([]float64, nq0), make([]float64, nq0), make([]float64, nq0)
	for i, q := range l.queries {
		sp := l.rec.begin(i, "transform.bounds", -1)
		t0 := time.Now()
		b, err := cix.Bounds(q, k)
		t1 := time.Now()
		l.rec.end(sp)
		if err != nil {
			return err
		}
		sp = l.rec.begin(i, "bbforest.candidates", -1)
		sess.Reset(store)
		c, _ := cix.Forest.CandidateUnionCtx(q, b.Radii, sess, &scratch)
		t2 := time.Now()
		l.rec.end(sp)
		sp = l.rec.begin(i, "scan.refine", -1)
		got := scan.Refine(l.d.div, sess, c, q, k)
		t3 := time.Now()
		l.rec.end(sp)
		l.check(sameItems(got, results[i].Items), "ladder query %d: replayed stages differ from the search", i)
		boundsMs[i], candMs[i], refineMs[i] = ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(t3.Sub(t2))
	}
	l.res.set("transform.bounds_ms", median(boundsMs))
	l.res.set("bbforest.candidates_ms", median(candMs))
	l.res.set("scan.refine_ms", median(refineMs))

	glue := make([]float64, len(l.queries))
	for i := range glue {
		glue[i] = searchMs[i] - boundsMs[i] - candMs[i] - refineMs[i]
	}
	l.res.set("core.glue_ms", median(glue))

	dst := make([]topk.Item, 0, k)
	allocs, bytes := allocsPer(len(l.queries), func(i int) { cix.SearchAppend(dst, l.queries[i], k) })
	l.res.set("core.allocs_per_search", allocs)
	l.res.set("core.bytes_per_search", bytes)

	rangeMs := l.each("core.range", l.queries, func(i int, q []float64) {
		kth := results[i].Items[len(results[i].Items)-1].Score
		items, _, err := cix.RangeSearch(q, kth)
		l.check(err == nil && len(items) >= len(results[i].Items), "ladder query %d: range search at the k-th distance returned %d items (err %v)", i, len(items), err)
	})
	l.res.set("core.range_ms", median(rangeMs))

	var recall, coeff float64
	var firstErr error
	approxMs := l.each("approx.search", l.queries, func(i int, q []float64) {
		res, err := cix.SearchApprox(q, k, 0.9)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		exact := make(map[int]bool, k)
		for _, it := range results[i].Items {
			exact[it.ID] = true
		}
		for _, it := range res.Items {
			if exact[it.ID] {
				recall++
			}
		}
		coeff += res.Stats.ApproxC
	})
	l.res.set("approx.search_ms", median(approxMs))
	l.res.set("approx.recall", recall/nq/k)
	l.res.set("approx.coefficient_mean", coeff/nq)
	return firstErr
}

// buildRungs repeats the three stages of core.Build as direct calls.
func (l *ladder) buildRungs() error {
	rows := l.cix.Points
	workers := runtime.GOMAXPROCS(0)
	var model partition.CostModel
	secs, err := l.once("partition.fit_cost_model", func() (err error) {
		model, err = partition.FitCostModel(l.d.div, rows, 0, indexSeed)
		return err
	})
	if err != nil {
		return err
	}
	l.res.set("partition.fit_cost_model_s", secs)
	l.res.set("partition.derived_m", float64(min(max(model.OptimalM(1), 1), l.d.dim)))
	m := l.cix.M() // the derived M, unless the workload pins it

	var parts [][]int
	secs, _ = l.once("partition.pccp", func() error {
		parts = partition.PCCPWorkers(rows, m, 0, indexSeed, workers)
		return nil
	})
	l.res.set("partition.pccp_s", secs)

	secs, err = l.once("bbforest.build", func() error {
		_, err := bbforest.Build(l.d.div, rows, parts, bbforest.Config{
			Tree: bbtree.Config{Seed: indexSeed}, Disk: disk.DefaultConfig(), Workers: workers,
		})
		return err
	})
	l.res.set("bbforest.build_s", secs)
	return err
}

// coldRungs attaches a cold tier to the ladder's index, unless the
// workload's set-up already has, and times searches served from it.
func (l *ladder) coldRungs() error {
	cix := l.cix
	dir := filepath.Join(l.work, "ladder-cold")
	defer os.RemoveAll(dir)
	secs, err := l.once("coldtier.build", func() error { return cix.BuildColdTier(dir, coldConfig()) })
	if err != nil {
		return err
	}
	defer cix.CloseColdTier()
	l.res.set("coldtier.build_s", secs)

	for _, q := range l.queries { // one sweep fills the block cache
		if _, err := cix.SearchCold(q, k); err != nil {
			return err
		}
	}
	var dst []topk.Item
	var coldTime time.Duration
	var scanned, pruned, faults, hits float64
	coldMs := l.searchRung("coldtier.search", l.block, func(q []float64) ([]topk.Item, error) {
		res, err := cix.SearchColdAppend(dst[:0], q, k)
		dst = res.Items
		coldTime += res.Stats.ColdTime
		scanned += float64(res.Stats.ColdScanned)
		pruned += float64(res.Stats.ColdPruned)
		faults += float64(res.Stats.ColdPageFaults)
		hits += float64(res.Stats.ColdCacheHits)
		return res.Items, err
	})
	total := 0.0
	for _, v := range coldMs {
		total += v
	}
	st, _ := cix.ColdStats()
	l.res.set("coldtier.search_ms", median(coldMs))
	l.res.set("coldtier.pruned_share", pruned/scanned)
	l.res.set("coldtier.page_faults_per_query", faults/float64(len(l.queries)))
	l.res.set("coldtier.cache_hit_share", hits/(hits+faults))
	l.res.set("coldtier.resident_mb", float64(st.ResidentBytes)/(1<<20))
	l.res.set("coldtier.time_share", ms(coldTime)/total)
	l.res.Checks["coldtier.fallbacks"] = float64(cix.ColdFallbacks())
	if cix.ColdFallbacks() != 0 {
		l.res.fail("%d cold searches fell back to the hot path", cix.ColdFallbacks())
	}
	return nil
}

func (l *ladder) wireRungs() error {
	q := l.queries[0]
	req := wire.Request{Op: wire.OpSearch, K: k, Queries: [][]float64{q}}
	items := make([]wire.Item, k)
	for i := range items {
		items[i] = wire.Item{ID: i, Distance: float64(i)}
	}
	resp := wire.Response{Op: wire.OpSearch, Results: []wire.Result{{Items: items}}}

	var buf []byte
	var err error
	codec := func(round func() error) (float64, error) {
		var samples []float64
		for s := 0; s < len(l.queries); s++ {
			t0 := time.Now()
			for r := 0; r < codecReps; r++ {
				if err := round(); err != nil {
					return 0, err
				}
			}
			samples = append(samples, float64(time.Since(t0))/float64(time.Microsecond)/codecReps)
		}
		return median(samples), nil
	}
	const lenPrefix = 4 // the frame's u32 length, which the decoders take stripped
	reqUs, err := codec(func() error {
		if buf, err = wire.AppendRequest(buf[:0], req); err != nil {
			return err
		}
		_, err = wire.DecodeRequest(buf[lenPrefix:])
		return err
	})
	if err != nil {
		return err
	}
	l.res.set("wire.request_codec_us", reqUs)
	l.res.set("wire.request_bytes", float64(len(buf)))
	respUs, err := codec(func() error {
		if buf, err = wire.AppendResponse(buf[:0], resp); err != nil {
			return err
		}
		_, err = wire.DecodeResponse(buf[lenPrefix:])
		return err
	})
	if err != nil {
		return err
	}
	l.res.set("wire.response_codec_us", respUs)
	body, err := json.Marshal(wire.SearchRequest{Q: q, K: k})
	l.res.set("wire.json_request_bytes", float64(len(body)))
	return err
}

func (l *ladder) walRungs() error {
	p := l.d.points[0]
	dir := filepath.Join(l.work, "ladder-wal")
	defer os.RemoveAll(dir)

	// Commit latency under the default policy: an fsync per commit.
	synced, err := wal.Create(filepath.Join(dir, "synced"), wal.Options{SyncEvery: 1})
	if err != nil {
		return err
	}
	var commitMs []float64
	for i := 0; i < walCommits; i++ {
		t0 := time.Now()
		if _, _, err := synced.Commit(wal.OpInsert, i, p); err != nil {
			return err
		}
		commitMs = append(commitMs, ms(time.Since(t0)))
	}
	if err := synced.Close(); err != nil {
		return err
	}
	l.res.set("wal.commit_ms", median(commitMs))

	// Record size and replay speed over a longer log written without syncs.
	replayDir := filepath.Join(dir, "replay")
	log, err := wal.Create(replayDir, wal.Options{SyncEvery: -1})
	if err != nil {
		return err
	}
	for i := 0; i < walReplayed; i++ {
		if _, err := log.Append(wal.OpInsert, i, p); err != nil {
			return err
		}
	}
	size := log.Size()
	if err := log.Close(); err != nil {
		return err
	}
	records := 0
	secs, err := l.once("wal.replay", func() error {
		return wal.Replay(replayDir, 0, func(wal.Record) error { records++; return nil })
	})
	l.check(err == nil && records == walReplayed, "wal replay saw %d of %d records (err %v)", records, walReplayed, err)
	l.res.set("wal.bytes_per_insert", float64(size)/walReplayed)
	l.res.set("wal.replay_us_per_record", secs*1e6/walReplayed)
	return err
}

// stageMeanMs is a stage histogram's mean in milliseconds, 0 if the
// stage never observed a request.
func stageMeanMs(budget map[string]obs.HistSnapshot, stage obs.Stage) float64 {
	snap := budget[stage.String()]
	if snap.Count == 0 {
		return 0
	}
	return snap.Sum / float64(snap.Count) * 1000
}

// serveRungs climbs from the sharded index to the loopback client over
// one durable root: shard searches and mutations direct, the engine and
// both client protocols against a quiescent server with the result cache
// off, then re-opens, and finally the serve-mixed op mix in miniature
// against a server with every request traced.
func (l *ladder) serveRungs() error {
	d := *l.d
	d.points = d.points[:min(len(d.points), serveSliceN)]
	block := kernel.Flatten(d.points)
	coreOpts := l.w.options()

	s1, err := shard.Build(d.div, d.points, shard.Options{Shards: 1, Core: coreOpts})
	if err != nil {
		return err
	}
	runtime.GC() // the build's garbage
	t := l.searchRung("shard.search_s1", block, func(q []float64) ([]topk.Item, error) {
		res, err := s1.Search(q, k)
		return res.Items, err
	})
	l.res.set("shard.search_s1_ms", median(t))

	root := filepath.Join(l.work, "ladder-durable")
	defer os.RemoveAll(root)
	dopts := shard.DurableOptions{Shards: 2, Core: coreOpts, CheckpointBytes: -1}
	dx, err := shard.BuildDurable(d.div, d.points, root, dopts)
	if err != nil {
		return err
	}
	runtime.GC()
	t = l.searchRung("shard.search_s2", block, func(q []float64) ([]topk.Item, error) {
		res, err := dx.Search(q, k)
		return res.Items, err
	})
	l.res.set("shard.search_s2_ms", median(t))
	allocs, _ := allocsPer(len(l.queries), func(i int) { dx.Search(l.queries[i], k) })
	l.res.set("shard.allocs_per_search", allocs)

	// Direct durable inserts, deleted again so that the served index holds
	// exactly the points the load run's model knows.
	inserted := make([]int, 0, shardInserts)
	rows := d.extra[:min(shardInserts, len(d.extra))]
	t = l.each("shard.insert", rows, func(_ int, p []float64) {
		id, err := dx.Insert(p)
		l.check(err == nil, "durable insert: %v", err)
		inserted = append(inserted, id)
	})
	l.res.set("shard.insert_ms", median(t))
	for _, id := range inserted {
		if _, err := dx.Delete(id); err != nil {
			return err
		}
	}
	secs, err := l.once("shard.checkpoint", dx.Checkpoint)
	if err != nil {
		return err
	}
	l.res.set("shard.checkpoint_ms", secs*1000)

	reopen := func() (*shard.Durable, error) { return shard.OpenDurable(root, dopts) }
	h := shard.NewHandle(dx)
	quiet := server.New(h, reopen, server.Config{Engine: engine.Config{CacheSize: -1}})
	ts := httptest.NewServer(quiet.Handler())
	clients := loopbackClients(ts.URL)
	eng := quiet.Engine()
	submitMs := l.searchRung("engine.submit_wait", block, func(q []float64) ([]topk.Item, error) {
		res, err := eng.Submit(q, k).Wait()
		return res.Items, err
	})
	l.res.set("engine.submit_wait_ms", median(submitMs))
	allocs, _ = allocsPer(len(l.queries), func(i int) { eng.Submit(l.queries[i], k).Wait() })
	l.res.set("engine.allocs_per_submit", allocs)

	batch := make([][]float64, 64)
	for i := range batch {
		batch[i] = l.queries[i%len(l.queries)]
	}
	var batchQPS []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		if _, err := eng.BatchSearch(batch, k); err != nil {
			return err
		}
		batchQPS = append(batchQPS, float64(len(batch))/time.Since(t0).Seconds())
	}
	l.res.set("engine.batch_qps", median(batchQPS))

	ctx := context.Background()
	var protoMs [2][]float64
	for c, name := range []string{"client.search_json", "client.search_binary"} {
		if _, err := clients[c].Search(ctx, l.queries[0], k); err != nil { // opens the connection
			return err
		}
		protoMs[c] = l.searchRung(name, block, func(q []float64) ([]topk.Item, error) {
			ns, err := clients[c].Search(ctx, q, k)
			return toItems(ns), err
		})
		l.res.set(name+"_ms", median(protoMs[c]))
	}
	allocs, _ = allocsPer(len(l.queries), func(i int) { clients[1].Search(ctx, l.queries[i], k) })
	l.res.set("client.allocs_per_search", allocs)
	l.res.set("server.overhead_ms", median(protoMs[1])-median(submitMs))
	for _, c := range clients {
		c.Close()
	}
	ts.Close()
	quiet.Close()
	if err := h.Close(); err != nil {
		return err
	}

	var openMs []float64
	for round := 0; round < openRounds; round++ {
		if round > 0 {
			if err := dx.Close(); err != nil {
				return err
			}
		}
		secs, err := l.once("shard.open", func() (err error) {
			dx, err = reopen()
			return err
		})
		if err != nil {
			return err
		}
		openMs = append(openMs, secs*1000)
	}
	l.res.set("shard.open_ms", median(openMs))

	h = shard.NewHandle(dx)
	defer h.Close()
	traced := server.New(h, reopen, server.Config{TraceSample: 1})
	defer traced.Close()
	ts = httptest.NewServer(traced.Handler())
	defer ts.Close()
	clients = loopbackClients(ts.URL)
	if err := warm(clients, d.queries); err != nil {
		return err
	}
	// At most one operation in ten is an insert, so six operations per
	// pooled row leave the schedule room.
	scheds, err := schedules(l.res.Seed, &d, min(ladderLoadOps, 6*d.pool()))
	if err != nil {
		return err
	}
	load := runLoad(l.rec, l.res, newModel(&d), clients, scheds)
	for _, c := range clients {
		c.Close()
	}
	budget, err := traced.StageBudget(wire.DefaultCollection)
	if err != nil {
		return err
	}
	l.res.set("server.admission_ms", stageMeanMs(budget, obs.StageAdmission))
	l.res.set("server.coalesce_ms", stageMeanMs(budget, obs.StageCoalesce))
	l.res.set("server.queue_ms", stageMeanMs(budget, obs.StageQueue))
	l.res.set("server.run_ms", stageMeanMs(budget, obs.StageRun))
	l.res.set("server.insert_p95_ms", percentile(load.insertMs, 0.95))
	st := traced.Engine().Stats()
	l.res.set("engine.cache_hit_share", float64(st.CacheHits)/float64(st.Queries))
	l.res.Checks["server.shed_share"] = float64(load.shed) / float64(load.ops)
	return nil
}

// insertRung times core.Index.Insert last, because it changes the index
// every other rung reads.
func (l *ladder) insertRung() {
	var us []float64
	for i, p := range l.d.extra[:min(50, len(l.d.extra))] {
		t0 := time.Now()
		_, err := l.cix.Insert(p)
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		l.check(err == nil, "core insert %d: %v", i, err)
	}
	l.res.set("core.insert_us", median(us))
}

// overheadPasses alternates untraced and traced passes of the workload's
// own timed operation and reports what recording costs and how far the
// untraced passes disagree with each other. pass returns the pass's
// calibrated median search latency.
func overheadPasses(cfg config, res *result, pass func(traced bool, no int) (float64, error)) error {
	var plain, traced []float64
	third := cfg
	third.seconds = cfg.seconds / 3 // the ladder takes the rest of a traced run
	err := timedPasses(third, func(no int) error {
		for _, on := range []bool{false, true} {
			p50, err := pass(on, no)
			if err != nil {
				return err
			}
			if on {
				traced = append(traced, p50)
			} else {
				plain = append(plain, p50)
			}
		}
		return nil
	})
	res.Passes = len(plain)
	res.set("obs.trace_overhead_share", median(traced)/median(plain)-1)
	res.set("bench.pass_spread_share", spreadShare(plain))
	return err
}

func runInprocTraced(s *inprocState, cfg config, rec *recorder, res *result) error {
	queries := s.d.queries[:min(len(s.d.queries), 24)]
	err := overheadPasses(cfg, res, func(traced bool, no int) (float64, error) {
		var r *recorder
		if traced {
			r = rec
		}
		p := s.pass(cfg.cal, r, res, queries, no)
		res.SearchSamples += len(p.searchMs)
		return median(p.searchMs) * p.factor, nil
	})
	if err != nil {
		return err
	}
	// The workload's own cold tier goes before the ladder attaches its own.
	if err := s.checkCold(res); err != nil {
		return err
	}
	if err := s.ix.close(); err != nil {
		return err
	}
	return newLadder(s.w, s.d, s.ix.core, cfg, res, rec).run()
}

func runServeTraced(s *serveState, w workload, cfg config, rec *recorder, res *result, scheds [][]op) error {
	err := overheadPasses(cfg, res, func(traced bool, no int) (float64, error) {
		var r *recorder
		if traced {
			r = rec
		}
		p, err := s.pass(cfg, r, res, scheds, traced, no)
		res.SearchSamples += len(p.searchMs)
		return median(p.searchMs) * p.factor, err
	})
	if err != nil {
		return err
	}
	cix, err := core.Build(s.d.div, s.d.points, w.options())
	if err != nil {
		return err
	}
	return newLadder(w, s.d, cix, cfg, res, rec).run()
}
