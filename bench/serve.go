package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"brepartition"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

const (
	// serveClients is nproc of the box the benchmark was sized on: more
	// callers than cores would measure the scheduler.
	serveClients = 2
	// opsPerClient is each client's operations in one pass.
	opsPerClient = 1500
	// hotQueries is the size of the query set a quarter of the searches
	// re-draw from, so that the result cache sees repeats.
	hotQueries = 32
	// insertPool is how many held-out rows serve-mixed holds for each
	// client to insert in one pass.
	insertPool = 160
	// warmSearches run per client before a pass is timed, to fill the
	// connection pool and the pooled search contexts.
	warmSearches = 20
	// reopenQueries are checked against a scan of the model after re-open.
	reopenQueries = 50
	// serveReopenRounds is how often a pass re-opens its root; reopen_s is
	// the median.
	serveReopenRounds = 5
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
	opCheckpoint
)

// op is one scheduled operation; query indexes the held-out queries.
type op struct {
	kind  opKind
	query int
}

// schedule is a client's operations for a pass, a pure function of the
// seed and the client: 90% searches (a quarter from the hot set), 5%
// inserts, 5% deletes of the client's own oldest live insert. A delete
// drawn while the client owns nothing becomes an insert, so that no
// operation can fail. Client 0 checkpoints once, half way. Every pass
// runs the same schedule from the same state, which is what lets the
// spread between passes be read as noise. pool is how many rows the
// client has to insert; a schedule needing more is an error, not a
// silent repeat.
func schedule(seed int64, client, ops, queries, pool int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	out := make([]op, 0, ops+1)
	hot := min(hotQueries, queries/2)
	owned, inserts := 0, 0
	for i := 0; i < ops; i++ {
		if client == 0 && i == ops/2 {
			out = append(out, op{kind: opCheckpoint})
		}
		switch r := rng.Float64(); {
		case r < 0.90:
			q := hot + rng.Intn(queries-hot)
			if rng.Intn(4) == 0 {
				q = rng.Intn(hot)
			}
			out = append(out, op{kind: opSearch, query: q})
		case r < 0.95 || owned == 0:
			out = append(out, op{kind: opInsert})
			owned++
			inserts++
		default:
			out = append(out, op{kind: opDelete})
			owned--
		}
	}
	if inserts > pool {
		return nil, fmt.Errorf("schedule of client %d needs %d insert rows, the pool holds %d", client, inserts, pool)
	}
	return out, nil
}

// modelPoint is what the benchmark knows about a point it inserted.
type modelPoint struct {
	p          []float64
	insertedAt time.Time // insert acknowledged
	deleteSent time.Time // zero until a delete is sent
	deletedAt  time.Time // zero until the delete is acknowledged
}

// model is the benchmark's own record of the served index: the base
// points, which are never deleted, and every point a client inserted.
type model struct {
	d    *data
	base kernel.FlatBlock

	mu       sync.Mutex
	inserted map[int]*modelPoint
}

func newModel(d *data) *model {
	return &model{d: d, base: kernel.Flatten(d.points), inserted: map[int]*modelPoint{}}
}

func (m *model) distance(p, q []float64) float64 {
	var out [1]float64
	m.d.kern.DistancesTo(q, kernel.FlatBlock{Data: p, Dim: len(p), N: 1}, out[:])
	return out[0]
}

// unknownItem is a returned id the model had not yet heard of when the
// response was checked: the other client's insert may be acknowledged
// to it only afterwards. It is checked again when the pass ends.
type unknownItem struct {
	q    []float64
	item topk.Item
}

// checkSearch verifies one response against the model. baseTop is the
// scan's answer over the base points. The response must be sorted; its
// base ids must be exactly the head of baseTop; its inserted ids must
// carry the kernel's distance and not have been deleted before the
// request was sent; and nothing the model knows to have been live for
// the whole request may be closer than the last item and missing.
func (m *model) checkSearch(start, end time.Time, q []float64, got []topk.Item, baseTop []topk.Item) ([]unknownItem, error) {
	if len(got) != k {
		return nil, fmt.Errorf("%d items, want %d", len(got), k)
	}
	for i := 1; i < len(got); i++ {
		if topk.Compare(got[i-1], got[i]) >= 0 {
			return nil, fmt.Errorf("items %d and %d out of order", i-1, i)
		}
	}
	last := got[len(got)-1]
	var unknown []unknownItem
	present := make(map[int]bool, len(got))
	m.mu.Lock()
	defer m.mu.Unlock()
	nextBase := 0
	for _, it := range got {
		present[it.ID] = true
		if it.ID < m.base.N {
			if it != baseTop[nextBase] {
				return nil, fmt.Errorf("base item %v, the scan has %v", it, baseTop[nextBase])
			}
			nextBase++
			continue
		}
		mp := m.inserted[it.ID]
		switch {
		case mp == nil:
			unknown = append(unknown, unknownItem{q, it})
		case !mp.deletedAt.IsZero() && mp.deletedAt.Before(start):
			return nil, fmt.Errorf("id %d returned after its delete was acknowledged", it.ID)
		case m.distance(mp.p, q) != it.Score:
			return nil, fmt.Errorf("id %d at distance %v, the kernel gives %v", it.ID, it.Score, m.distance(mp.p, q))
		}
	}
	if nextBase < len(baseTop) && topk.Compare(baseTop[nextBase], last) < 0 {
		return nil, fmt.Errorf("base item %v is closer than the last item and missing", baseTop[nextBase])
	}
	for id, mp := range m.inserted {
		stable := mp.insertedAt.Before(start) && (mp.deleteSent.IsZero() || mp.deleteSent.After(end))
		if !stable || present[id] {
			continue
		}
		if it := (topk.Item{ID: id, Score: m.distance(mp.p, q)}); topk.Compare(it, last) < 0 {
			return nil, fmt.Errorf("inserted item %v is closer than the last item and missing", it)
		}
	}
	return unknown, nil
}

// live returns the ids and rows the model holds live, ascending by id,
// so that a scan over the rows breaks ties as the index does.
func (m *model) live() ([]int, [][]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]int, 0, m.base.N+len(m.inserted))
	for id := range m.d.points {
		ids = append(ids, id)
	}
	for id, mp := range m.inserted {
		if mp.deleteSent.IsZero() {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		if id < m.base.N {
			rows[i] = m.d.points[id]
		} else {
			rows[i] = m.inserted[id].p
		}
	}
	return ids, rows
}

func toItems(ns []brepartition.Neighbor) []topk.Item {
	out := make([]topk.Item, len(ns))
	for i, n := range ns {
		out[i] = topk.Item{ID: n.ID, Score: n.Distance}
	}
	return out
}

// clientRun is what one client measured in one pass.
type clientRun struct {
	searchMs, scanMs, insertMs []float64
	unknown                    []unknownItem
}

// runClient issues a client's schedule, closed loop: the next request is
// sent once the previous answer has been received and checked.
func runClient(ctx context.Context, rec *recorder, res *resultLog, m *model, c *brepartition.Client, id int, ops []op) clientRun {
	var run clientRun
	var owned []int
	pool := m.d.extra[id*m.d.pool() : (id+1)*m.d.pool()]
	root := rec.begin(id, "client", -1)
	for i, o := range ops {
		switch o.kind {
		case opSearch:
			q := m.d.queries[o.query]
			sp := rec.begin(i, "search", root)
			t0 := time.Now()
			ns, err := c.Search(ctx, q, k)
			t1 := time.Now()
			rec.end(sp)
			sp = rec.begin(i, "oracle", root)
			baseTop := scan.KNNBlock(m.d.kern, m.base, q, k)
			t2 := time.Now()
			rec.end(sp)
			run.searchMs = append(run.searchMs, ms(t1.Sub(t0)))
			run.scanMs = append(run.scanMs, ms(t2.Sub(t1)))
			if err == nil {
				var unknown []unknownItem
				unknown, err = m.checkSearch(t0, t1, q, toItems(ns), baseTop)
				run.unknown = append(run.unknown, unknown...)
			}
			res.op(err, "client %d op %d search", id, i)
		case opInsert:
			p := pool[0]
			pool = pool[1:]
			sp := rec.begin(i, "insert", root)
			t0 := time.Now()
			pid, err := c.Insert(ctx, p)
			t1 := time.Now()
			rec.end(sp)
			run.insertMs = append(run.insertMs, ms(t1.Sub(t0)))
			if err == nil {
				m.mu.Lock()
				m.inserted[pid] = &modelPoint{p: p, insertedAt: t1}
				m.mu.Unlock()
				owned = append(owned, pid)
			}
			res.op(err, "client %d op %d insert", id, i)
		case opDelete:
			pid := owned[0]
			owned = owned[1:]
			m.mu.Lock()
			mp := m.inserted[pid]
			mp.deleteSent = time.Now()
			m.mu.Unlock()
			sp := rec.begin(i, "delete", root)
			wasLive, err := c.Delete(ctx, pid)
			rec.end(sp)
			if err == nil && !wasLive {
				err = fmt.Errorf("id %d was not live", pid)
			}
			m.mu.Lock()
			mp.deletedAt = time.Now()
			m.mu.Unlock()
			res.op(err, "client %d op %d delete", id, i)
		case opCheckpoint:
			sp := rec.begin(i, "checkpoint", root)
			err := c.Checkpoint(ctx)
			rec.end(sp)
			res.op(err, "client %d op %d checkpoint", id, i)
		}
	}
	rec.end(root)
	return run
}

// resultLog counts operations from several goroutines into a result.
type resultLog struct {
	mu   sync.Mutex
	res  *result
	shed int // operations the server refused with 429
}

func (l *resultLog) op(err error, format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.res.Attempted++
	if errors.Is(err, brepartition.ErrOverloaded) {
		l.shed++
	}
	if err != nil {
		l.res.fail("%s: %v", fmt.Sprintf(format, args...), err)
	}
}

// loadRun is what one pass of the load measured, over all clients.
type loadRun struct {
	searchPass
	insertMs []float64
	wall     time.Duration
	ops      int
	shed     int
}

// runLoad starts every client at once, waits for all of them, and then
// settles the ids that were unknown when first seen.
func runLoad(rec *recorder, res *result, m *model, clients []*brepartition.Client, scheds [][]op) loadRun {
	log := &resultLog{res: res}
	runs := make([]clientRun, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = runClient(context.Background(), rec, log, m, clients[i], i, scheds[i])
		}()
	}
	wg.Wait()
	out := loadRun{wall: time.Since(start), shed: log.shed}
	for i, r := range runs {
		out.ops += len(scheds[i])
		out.searchMs = append(out.searchMs, r.searchMs...)
		out.scanMs = append(out.scanMs, r.scanMs...)
		out.insertMs = append(out.insertMs, r.insertMs...)
		for _, u := range r.unknown {
			mp := m.inserted[u.item.ID]
			switch {
			case mp == nil:
				res.fail("id %d was returned but never inserted", u.item.ID)
			case m.distance(mp.p, u.q) != u.item.Score:
				res.fail("id %d at distance %v, the kernel gives %v", u.item.ID, u.item.Score, m.distance(mp.p, u.q))
			}
		}
	}
	return out
}

// served is a server on a loopback listener with one client per caller:
// client 0 speaks JSON, client 1 the binary protocol, each over its own
// keep-alive connection.
type served struct {
	srv     *brepartition.Server
	ts      *httptest.Server
	clients []*brepartition.Client
}

func serveRoot(root string, traced bool) (*served, error) {
	var opts []brepartition.ServeOption
	if traced {
		opts = append(opts, brepartition.WithServerConfig(brepartition.ServerOptions{TraceSample: 1}))
	}
	srv, err := brepartition.NewServer(root, opts...)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &served{srv: srv, ts: ts, clients: loopbackClients(ts.URL)}, nil
}

func loopbackClients(url string) []*brepartition.Client {
	return []*brepartition.Client{brepartition.NewClient(url), brepartition.NewClient(url, brepartition.WithBinary())}
}

// warm fills each client's connection pool and the server's pooled search
// contexts.
func warm(clients []*brepartition.Client, queries [][]float64) error {
	for _, c := range clients {
		for _, q := range queries[:warmSearches] {
			if _, err := c.Search(context.Background(), q, k); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *served) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	s.ts.Close()
	return s.srv.Close()
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
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
}

// serveState is one completed set-up of serve-mixed: the generated data
// and the template directory every pass starts from a copy of.
type serveState struct {
	d        *data
	template string
	setupS   float64 // raw seconds
	factor   float64 // speed factor of the box during set-up
	memMiB   float64
}

func (w workload) durableOptions() *brepartition.DurableOptions {
	return &brepartition.DurableOptions{Shards: 2, Core: w.options()}
}

// setupServe generates the data, writes the durable template, and brings
// a server up on a copy of it as far as the first answered request.
func setupServe(w workload, cfg config, round int) (*serveState, error) {
	s := &serveState{template: filepath.Join(cfg.work, fmt.Sprintf("template-%d", round))}
	t0 := time.Now()
	d, err := w.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	s.d = d
	generated := time.Since(t0)
	before := heapMiB()

	t0 = time.Now()
	dx, err := brepartition.BuildDurable(d.div, d.points, s.template, w.durableOptions())
	if err != nil {
		return nil, err
	}
	if err := dx.Close(); err != nil {
		return nil, err
	}
	root := filepath.Join(cfg.work, "setup-root")
	defer os.RemoveAll(root)
	if err := copyDir(s.template, root); err != nil {
		return nil, err
	}
	sv, err := serveRoot(root, false)
	if err != nil {
		return nil, err
	}
	if err := warm(sv.clients, d.queries); err != nil {
		return nil, err
	}
	s.setupS = (generated + time.Since(t0)).Seconds()
	s.factor = cfg.cal.factor()
	dx = nil // the closed builder still holds its in-memory index; the server has its own
	s.memMiB = heapMiB() - before
	return s, sv.close()
}

// servePass is what one pass of serve-mixed measured.
type servePass struct {
	loadRun
	reopenS   float64
	diskRatio float64
}

// pass runs the load against a fresh copy of the template, closes the
// server, and re-opens it: the re-open is timed up to the first correct
// answer and then checked against a scan of the model, insert by insert
// and delete by delete.
func (s *serveState) pass(cfg config, rec *recorder, res *result, scheds [][]op, traced bool, no int) (servePass, error) {
	var p servePass
	root := filepath.Join(cfg.work, fmt.Sprintf("pass-%d", no))
	defer os.RemoveAll(root)
	if err := copyDir(s.template, root); err != nil {
		return p, err
	}
	sv, err := serveRoot(root, traced)
	if err != nil {
		return p, err
	}
	if err := warm(sv.clients, s.d.queries); err != nil {
		return p, err
	}
	m := newModel(s.d)
	before := sv.srv.Stats()
	p.loadRun = runLoad(rec, res, m, sv.clients, scheds)
	// The loop cannot run beside two closed-loop clients without taking a
	// core from them, so it runs straight after the load.
	p.factor = cfg.cal.factor()
	after := sv.srv.Stats()
	p.pageReads = int(after.PageReads - before.PageReads)
	p.pageReadSearches = int(after.Queries - before.Queries)
	if err := sv.close(); err != nil {
		return p, err
	}

	ids, rows := m.live()
	liveBlock := kernel.Flatten(rows)
	want := func(q []float64, k int) []topk.Item {
		items := scan.KNNBlock(s.d.kern, liveBlock, q, k)
		for i := range items {
			items[i].ID = ids[items[i].ID]
		}
		return items
	}
	// Close does not fold the log into the snapshot, so every round loads
	// the same snapshot and replays the same WAL tail.
	var reopenS []float64
	for round := 0; round < serveReopenRounds; round++ {
		if round > 0 {
			if err := sv.close(); err != nil {
				return p, err
			}
		}
		t0 := time.Now()
		if sv, err = serveRoot(root, false); err != nil {
			return p, err
		}
		first, err := sv.clients[1].Search(context.Background(), s.d.queries[0], k)
		reopenS = append(reopenS, time.Since(t0).Seconds())
		res.Attempted++
		if err != nil || !sameItems(toItems(first), want(s.d.queries[0], k)) {
			res.fail("pass %d: first answer after re-open wrong (err %v)", no, err)
		}
	}
	p.reopenS = median(reopenS)
	s.verifyReopened(res, m, sv.clients[1], want, no)
	if err := sv.close(); err != nil {
		return p, err
	}
	diskBytes, err := dirSize(root)
	if err != nil {
		return p, err
	}
	p.diskRatio = float64(diskBytes) / float64(len(ids)*s.d.dim*8)
	return p, nil
}

// verifyReopened checks the re-opened server against the model: queries
// equal a scan of the live points, every acknowledged insert is its own
// nearest neighbour, and no acknowledged delete is.
func (s *serveState) verifyReopened(res *result, m *model, c *brepartition.Client, want func(q []float64, k int) []topk.Item, no int) {
	ctx := context.Background()
	for i, q := range s.d.queries[:min(reopenQueries, len(s.d.queries))] {
		got, err := c.Search(ctx, q, k)
		res.Attempted++
		if err != nil || !sameItems(toItems(got), want(q, k)) {
			res.fail("pass %d: query %d after re-open differs from a scan of the model (err %v)", no, i, err)
		}
	}
	for id, mp := range m.inserted {
		got, err := c.Search(ctx, mp.p, 1)
		res.Attempted++
		switch deleted := !mp.deleteSent.IsZero(); {
		case err != nil || len(got) != 1:
			res.fail("pass %d: looking up id %d after re-open: %v", no, id, err)
		case !deleted && got[0].ID != id:
			res.fail("pass %d: acknowledged insert %d missing after re-open", no, id)
		case deleted && got[0].ID == id:
			res.fail("pass %d: acknowledged delete %d present after re-open", no, id)
		}
	}
}

func schedules(seed int64, d *data, ops int) ([][]op, error) {
	scheds := make([][]op, serveClients)
	for c := range scheds {
		var err error
		if scheds[c], err = schedule(seed, c, ops, len(d.queries), d.pool()); err != nil {
			return nil, err
		}
	}
	return scheds, nil
}

func runServe(w workload, cfg config, rec *recorder) (*result, error) {
	res := newResult(cfg, serveClients)
	ops := opsPerClient
	if cfg.small {
		ops = 150
	}
	if cfg.traced {
		ops /= 3 // a traced run spends most of its time on the ladder
	}
	var s *serveState
	var setups, setupFactors []float64
	for round := 0; round < cfg.setups; round++ {
		if s != nil {
			os.RemoveAll(s.template)
		}
		var err error
		if s, err = setupServe(w, cfg, round); err != nil {
			return nil, err
		}
		setups = append(setups, s.setupS)
		setupFactors = append(setupFactors, s.factor)
	}
	scheds, err := schedules(cfg.seed, s.d, ops)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return res, runServeTraced(s, w, cfg, rec, res, scheds)
	}

	var passes []searchPass
	var qps, insertMs, reopenS, diskRatio, factors []float64
	err = timedPasses(cfg, func(no int) error {
		p, err := s.pass(cfg, nil, res, scheds, false, no)
		if err != nil {
			return err
		}
		passes = append(passes, p.searchPass)
		qps = append(qps, float64(len(p.searchMs))/p.wall.Seconds())
		insertMs = append(insertMs, median(p.insertMs))
		reopenS = append(reopenS, p.reopenS)
		diskRatio = append(diskRatio, p.diskRatio)
		factors = append(factors, p.factor)
		return nil
	})
	if err != nil {
		return nil, err
	}
	passMetrics(res, passes, qps)
	res.setTimed("setup_s", setups, setupFactors)
	res.set("index_mem_mb", s.memMiB)
	res.setTimed("insert_p50_ms", insertMs, factors)
	res.setTimed("reopen_s", reopenS, factors)
	res.setPasses("disk_bytes_per_data_byte", diskRatio)
	return res, nil
}
