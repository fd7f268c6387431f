package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"brepartition/internal/client"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/obs"
	"brepartition/internal/server"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

// Trace measures WHERE a served query's latency goes: it stands up the
// full loopback serving stack with every request traced (sample rate 1),
// drives the query set through the binary protocol, and reports the per-stage time budget from the server's own
// stage histograms — the same data /metrics exports as
// breserved_request_duration_seconds. The interesting output is the
// decomposition: how much of the end-to-end total is admission,
// scheduler queueing, and actual search work, and within the run how
// the scan/refine split behaves.
func (e *Env) Trace(workers int) []Table {
	name := "audio"
	ds := e.Dataset(name)
	dim := len(ds.Points[0])

	dir, err := os.MkdirTemp("", "brebench-trace-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	root := filepath.Join(dir, "durable")
	opts := shard.DurableOptions{
		Shards: 4,
		Core: core.Options{
			Tree: e.treeCfg(),
			Disk: e.diskCfg(ds),
			Seed: e.cfg.Seed,
		},
		CheckpointBytes: -1,
	}
	dx, err := shard.BuildDurable(e.divergence(ds), ds.Points, root, opts)
	if err != nil {
		panic(fmt.Sprintf("trace: %v", err))
	}
	h := shard.NewHandle(dx)
	defer h.Close()
	srv := server.New(h,
		func() (*shard.Durable, error) { return shard.OpenDurable(root, opts) },
		server.Config{
			Engine:      engine.Config{Workers: workers},
			TraceSample: 1,
		})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	cl := client.New(ts.URL, client.Options{Binary: true, Timeout: 5 * time.Second})
	defer cl.Close()

	queries := e.Queries(name)
	const k = 10

	start := time.Now()
	n := 0
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			if _, err := cl.Search(context.Background(), q, k); err != nil {
				panic(fmt.Sprintf("trace: %v", err))
			}
			n++
		}
	}
	wall := time.Since(start)

	budget, err := srv.StageBudget(wire.DefaultCollection)
	if err != nil {
		panic(fmt.Sprintf("trace: %v", err))
	}
	total, ok := budget[obs.StageTotal.String()]
	if !ok || total.Count == 0 {
		panic("trace: no traced requests recorded")
	}

	tbl := Table{
		Title: fmt.Sprintf("Stage-time budget — %s (dim=%d, k=%d, %d traced requests, %s wall, binary protocol)",
			name, dim, k, n, wall.Round(time.Millisecond)),
		Header: []string{"stage", "samples", "mean", "share of total"},
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		snap, ok := budget[st.String()]
		if !ok {
			continue
		}
		mean := time.Duration(snap.Sum / float64(snap.Count) * float64(time.Second))
		share := "—"
		if st != obs.StageTotal && total.Sum > 0 {
			share = fmt.Sprintf("%.1f%%", 100*snap.Sum/total.Sum)
		}
		tbl.Rows = append(tbl.Rows, []string{
			st.String(),
			fmt.Sprintf("%d", snap.Count),
			fmtDur(mean),
			share,
		})
	}
	return []Table{tbl}
}
