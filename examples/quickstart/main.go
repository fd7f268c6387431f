// Quickstart: build BrePartition's one Index type over a small synthetic
// dataset in memory, sharded, durable and served, and run exact kNN
// queries under the Itakura–Saito distance.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"

	"brepartition"
)

func main() {
	const (
		n   = 2000
		dim = 64
		k   = 5
	)
	rng := rand.New(rand.NewSource(42))

	// Positive-valued feature vectors (the IS distance's domain is (0,∞)):
	// three loose clusters of spectral-envelope-like rows.
	points := make([][]float64, n)
	for i := range points {
		base := 1.0 + 3*float64(i%3)
		p := make([]float64, dim)
		for j := range p {
			p[j] = base + 0.5*rng.Float64()
		}
		points[i] = p
	}

	// Build with defaults (in memory, one shard): M is derived by the
	// paper's Theorem-4 cost model and dimensions are assigned by PCCP.
	idx, err := brepartition.Build(brepartition.ItakuraSaito(), points, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d points of %d dims with M=%d partitions (built in %s)\n",
		idx.N(), idx.Dim(), idx.M(), idx.BuildTime())

	query := points[10]
	res, err := idx.Search(query, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query answered: %d candidates, %d page reads\n",
		res.Stats.Candidates, res.Stats.PageReads)
	for rank, nb := range brepartition.Neighbors(res) {
		fmt.Printf("  #%d  row=%-5d D_f=%.6f\n", rank+1, nb.ID, nb.Distance)
	}

	// Sanity: the first neighbour of a dataset row is the row itself.
	if res.Items[0].ID != 10 {
		log.Fatalf("expected row 10 first, got %d", res.Items[0].ID)
	}
	fmt.Println("exact result verified (query row ranked first).")

	// Zero-allocation steady state: SearchAppend reuses the previous
	// result's buffer, and every internal scratch comes from a pooled
	// per-query context — tight query loops allocate nothing per query.
	// (Reuse a dedicated buffer: recycling res.Items here would overwrite
	// the result we still compare against below.)
	var hot brepartition.Result
	for i := 0; i < 3; i++ {
		hot, err = idx.SearchAppend(hot.Items[:0], points[20+i], k)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("zero-alloc loop answered, last top hit row=%d\n", hot.Items[0].ID)

	// Batch mode: for query-heavy workloads, an Engine answers many
	// queries concurrently (a bounded worker pool) and aggregates
	// service statistics. Results are identical to calling
	// Search in a loop.
	batch := make([][]float64, 64)
	for i := range batch {
		batch[i] = points[(i*7)%n]
	}
	eng := brepartition.NewEngine(idx, nil) // defaults: GOMAXPROCS workers
	results, err := eng.BatchSearch(batch, k)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		if r.Items[0].ID != (i*7)%n {
			log.Fatalf("batch query %d: expected row %d first, got %d",
				i, (i*7)%n, r.Items[0].ID)
		}
	}
	st := eng.Stats()
	fmt.Printf("batch of %d queries on %d workers: %.0f QPS, p50=%s p99=%s, %d page reads\n",
		len(batch), eng.Workers(), st.QPS, st.P50, st.P99, st.PageReads)

	// The engine schedules queries only: mutate the index itself, also
	// while the engine's searches run; the next search sees it.
	if _, err := idx.Insert(points[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after one insert: %d live points, index version %d\n",
		idx.Live(), idx.Version())

	// Scaling out: BuildSharded returns the same Index type with the
	// points hash-partitioned across several shards, answered
	// scatter-gather — results are bit-identical to the one-shard index,
	// and mutations only lock the owning shard.
	// (cmd/brebench's `sharded` experiment measures this at -shards N.)
	sharded, err := brepartition.BuildSharded(brepartition.ItakuraSaito(), points, 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := sharded.Search(query, k)
	if err != nil {
		log.Fatal(err)
	}
	for i := range sres.Items {
		if sres.Items[i] != res.Items[i] {
			log.Fatalf("sharded answer diverged at rank %d", i)
		}
	}
	fmt.Printf("sharded ×%d (sizes %v): identical top-%d verified\n",
		sharded.Shards(), sharded.ShardSizes(), k)

	// Sharded snapshots: WriteDir persists a manifest plus one file per
	// shard with checksums, committed by atomic rename; OpenSharded
	// verifies every checksum before trusting any shard.
	dir, err := os.MkdirTemp("", "brepartition-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "snapshot")
	if err := sharded.WriteDir(snap); err != nil {
		log.Fatal(err)
	}
	reloaded, err := brepartition.OpenSharded(snap)
	if err != nil {
		log.Fatal(err)
	}
	rres, err := reloaded.Search(query, k)
	if err != nil {
		log.Fatal(err)
	}
	if rres.Items[0] != sres.Items[0] {
		log.Fatal("snapshot round trip changed the answer")
	}
	fmt.Printf("snapshot round trip: %d points reloaded from %s, answers identical\n",
		reloaded.N(), snap)

	// Durability: BuildDurable's Index lives under a directory and logs
	// every mutation before applying it, so Insert/Delete survive a crash.
	// With the default policy each mutation is fsynced (group-committed)
	// before the call returns; a background checkpointer folds the log
	// into a snapshot to bound recovery time.
	durableRoot := filepath.Join(dir, "durable")
	dx, err := brepartition.BuildDurable(brepartition.ItakuraSaito(), points, durableRoot, nil)
	if err != nil {
		log.Fatal(err)
	}
	newID, err := dx.Insert(points[1])
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dx.Delete(2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("durable index: %d mutations logged (synced LSN %d), wal=%d bytes\n",
		dx.LastLSN(), dx.SyncedLSN(), dx.WALSize())

	// Simulate the crash: no Close, no snapshot — just reopen the
	// directory. Recovery loads the build-time snapshot and replays the
	// WAL tail; both acknowledged mutations are there.
	recovered, err := brepartition.OpenDurable(durableRoot, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	rq, err := recovered.Search(points[1], 2)
	if err != nil {
		log.Fatal(err)
	}
	if rq.Items[0].ID != 1 && rq.Items[0].ID != newID {
		log.Fatalf("recovery lost the inserted point: %+v", rq.Items)
	}
	if recovered.Live() != n {
		log.Fatalf("recovered %d live points, want %d (insert + delete on %d)",
			recovered.Live(), n, n)
	}
	fmt.Printf("crash recovery: %d ids, %d live — every acknowledged mutation replayed\n",
		recovered.N(), recovered.Live())
	dx.Close()

	// An Engine serves the durable index like any other; its mutations
	// still go to the index, which logs them.
	deng := brepartition.NewEngine(recovered, nil)
	if _, err := recovered.Insert(points[3]); err != nil {
		log.Fatal(err)
	}
	if _, err := deng.BatchSearch(batch[:8], k); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine over durable index: %d queries beside %d logged mutations\n",
		deng.Stats().Queries, recovered.LastLSN())
	deng.Close()
	recovered.Close()

	// Serving over the network: NewServer puts the durable directory
	// behind HTTP (admission control, per-request deadlines, /metrics,
	// hot /admin/reload — see cmd/breserved for the daemon) and a Client
	// talks to it with pooled connections; answers are bit-identical to
	// the in-process index. WithBinary switches from JSON to the compact
	// length-prefixed protocol.
	srv, err := brepartition.NewServer(durableRoot)
	if err != nil {
		log.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler()) // or http.ListenAndServe(":7600", srv.Handler())
	ctx := context.Background()
	cl := brepartition.NewClient(hs.URL, brepartition.WithBinary())
	before, err := cl.Search(ctx, query, k)
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.Reload(ctx); err != nil { // hot checkpoint + swap, queries keep flowing
		log.Fatal(err)
	}
	after, err := cl.Search(ctx, query, k)
	if err != nil {
		log.Fatal(err)
	}
	if before[0] != after[0] {
		log.Fatal("hot reload changed the answer")
	}
	health, err := cl.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served over HTTP: top hit id=%d dist=%.4f from %d live points, identical across hot reload\n",
		after[0].ID, after[0].Distance, health.Live)
	cl.Close()
	hs.Close()
	srv.Close()

	// Multi-tenant collections: one process serves many independent
	// indexes. OpenCollections opens a registry root; collections are
	// created live — each with its own divergence and geometry — and the
	// client scopes to one with Collection(name). Tags attached at insert
	// time drive filtered search: the exact top-k over only matching
	// points, with the predicate pruning inside the index scan.
	colRoot := filepath.Join(dir, "collections")
	cs, err := brepartition.OpenCollections(colRoot)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cs.Create("docs", brepartition.CollectionSpec{Divergence: "l2", Dim: dim}); err != nil {
		log.Fatal(err)
	}
	hs2 := httptest.NewServer(cs.Handler())
	mcl := brepartition.NewClient(hs2.URL)
	// A second collection under a different divergence, created remotely.
	if _, err := mcl.CreateCollection(ctx, "topics", brepartition.CollectionSpec{Divergence: "gkl", Dim: dim}); err != nil {
		log.Fatal(err)
	}
	docs := mcl.Collection("docs")
	for i, p := range points[:32] {
		tags := []string{"corpus"}
		if i%2 == 0 {
			tags = append(tags, "even")
		}
		if _, err := docs.InsertTagged(ctx, p, tags); err != nil {
			log.Fatal(err)
		}
	}
	topics := mcl.Collection("topics")
	for _, p := range points[:8] {
		if _, err := topics.Insert(ctx, p); err != nil {
			log.Fatal(err)
		}
	}
	all, err := docs.Search(ctx, query, 4)
	if err != nil {
		log.Fatal(err)
	}
	evens, err := docs.SearchFiltered(ctx, query, 4, brepartition.Filter{Tags: []string{"even"}})
	if err != nil {
		log.Fatal(err)
	}
	infos, err := mcl.Collections(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collections served: %d; docs top hit id=%d, filtered(even) top hit id=%d\n",
		len(infos), all[0].ID, evens[0].ID)
	mcl.Close()
	hs2.Close()
	cs.Close()
}
