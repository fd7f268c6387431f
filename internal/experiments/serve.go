package experiments

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"brepartition/internal/client"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/server"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

// Serve measures the breserved serving stack under OPEN-LOOP load — the
// regime closed-loop benchmarks cannot show: a generator fires requests
// at a fixed offered rate regardless of completions, exactly like remote
// user traffic, and the interesting outputs are the achieved rate, the
// shed rate (admission control turning overload into fast 429s instead
// of unbounded queueing), the requests that failed outright, and the
// latency of the requests that were served. The offered-rate ladder
// climbs past the box's capacity so the top rows show the load-shed
// regime. Each millisecond tick sends every request that has come due
// (see due), so a late tick catches up instead of lowering the rate; the
// "sent QPS" column shows the rate that reached the server. The generator
// keeps at most maxOutstanding requests open; a request due past that
// bound is counted as not sent instead of opening yet another connection.
// A failure at or below calibrated capacity panics: there the server must
// answer every request.
func (e *Env) Serve(workers int) []Table {
	name := "audio"
	ds := e.Dataset(name)
	dim := len(ds.Points[0])

	dir, err := os.MkdirTemp("", "brebench-serve-*")
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
		panic(fmt.Sprintf("serve: %v", err))
	}
	h := shard.NewHandle(dx)
	defer h.Close()
	srv := server.New(h,
		func() (*shard.Durable, error) { return shard.OpenDurable(root, opts) },
		server.Config{Engine: engine.Config{Workers: workers}})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	cl := client.New(ts.URL, client.Options{Binary: true, Timeout: 5 * time.Second})
	defer cl.Close()

	queries := e.Queries(name)
	const k = 10

	// Calibrate capacity with a short closed-loop burst, then ladder the
	// offered rate from comfortable to ~4x capacity.
	capacityQPS := calibrate(cl.Collection(wire.DefaultCollection), queries, k)
	rates := []float64{0.5 * capacityQPS, capacityQPS, 2 * capacityQPS, 4 * capacityQPS}

	tbl := Table{
		Title: fmt.Sprintf("Open-loop serving — %s (dim=%d, k=%d, workers=%d, binary protocol; ~%.0f QPS closed-loop capacity)",
			name, dim, k, srv.Engine().Workers(), capacityQPS),
		Header: []string{"asked QPS", "sent QPS", "achieved QPS", "shed rate", "failed", "not sent", "p50", "p99"},
	}
	for _, rate := range rates {
		res := openLoop(cl.Collection(wire.DefaultCollection), queries, k, rate, 700*time.Millisecond)
		if res.failed > 0 && rate <= capacityQPS {
			panic(fmt.Sprintf("serve: %d requests failed at %.0f offered QPS, within capacity: %v",
				res.failed, rate, res.firstErr))
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.0f", res.sentQPS),
			fmt.Sprintf("%.0f", res.achievedQPS),
			fmt.Sprintf("%.1f%%", 100*res.shedRate),
			fmt.Sprint(res.failed),
			fmt.Sprint(res.notSent),
			res.p50.Round(10 * time.Microsecond).String(),
			res.p99.Round(10 * time.Microsecond).String(),
		})
	}
	return []Table{tbl}
}

// calibrate estimates the box's closed-loop serving capacity with a
// short saturated burst.
func calibrate(col *client.Collection, queries [][]float64, k int) float64 {
	const dur = 300 * time.Millisecond
	var done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := col.Search(context.Background(), queries[(w+i)%len(queries)], k); err == nil {
					done.Add(1)
				}
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	qps := float64(done.Load()) / time.Since(start).Seconds()
	if qps < 1 {
		qps = 1
	}
	return qps
}

type openLoopResult struct {
	sentQPS         float64 // requests that reached the server, per second of sending
	achievedQPS     float64
	shedRate        float64
	failed, notSent int64
	firstErr        error // the first failure, for the within-capacity panic
	p50, p99        time.Duration
}

// maxOutstanding bounds the generator's open requests, each of which
// holds a loopback connection (two descriptors in this process).
const maxOutstanding = 256

// due is how many requests an open-loop generator at rate per second
// still owes after elapsed: ⌊elapsed × rate⌋ minus the issued ones it
// already sent or counted as not sent.
func due(elapsed time.Duration, rate float64, issued int64) int64 {
	return max(int64(elapsed.Seconds()*rate)-issued, 0)
}

// openLoop fires requests at the offered rate for dur, never waiting for
// completions (each request runs on its own goroutine, up to
// maxOutstanding at once), and reports what the server actually absorbed.
func openLoop(col *client.Collection, queries [][]float64, k int, rate float64, dur time.Duration) openLoopResult {
	var (
		mu   sync.Mutex
		res  openLoopResult
		lats []time.Duration // one per served request
		shed int64
		wg   sync.WaitGroup
	)
	slots := make(chan struct{}, maxOutstanding)
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	deadline := time.NewTimer(dur)
	defer deadline.Stop()
	start := time.Now()
	var issued int64
loop:
	for {
		select {
		case <-ticker.C:
			for n := due(time.Since(start), rate, issued); n > 0; n-- {
				issued++
				select {
				case slots <- struct{}{}:
				default:
					res.notSent++
					continue
				}
				q := queries[int(issued)%len(queries)]
				wg.Add(1)
				go func() {
					defer func() { <-slots; wg.Done() }()
					t0 := time.Now()
					_, err := col.Search(context.Background(), q, k)
					lat := time.Since(t0)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err == nil:
						lats = append(lats, lat)
					case errors.Is(err, client.ErrOverloaded):
						shed++
					default:
						res.failed++
						if res.firstErr == nil {
							res.firstErr = err
						}
					}
				}()
			}
		case <-deadline.C:
			break loop
		}
	}
	res.sentQPS = float64(issued-res.notSent) / time.Since(start).Seconds()
	wg.Wait()
	wall := time.Since(start)

	res.achievedQPS = float64(len(lats)) / wall.Seconds()
	if sent := int64(len(lats)) + shed + res.failed; sent > 0 {
		res.shedRate = float64(shed) / float64(sent)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		res.p50 = lats[len(lats)/2]
		res.p99 = lats[(len(lats)*99)/100]
	}
	return res
}
