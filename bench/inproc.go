package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"brepartition"
	"brepartition/internal/coldtier"
	"brepartition/internal/core"
	"brepartition/internal/kernel"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

// searchFn is a workload's timed operation.
type searchFn func(dst []topk.Item, q []float64, k int) (core.Result, error)

// inprocIndex is the index an in-process workload measures. An untraced
// run builds it through the public API an embedder calls; a traced run
// builds the same index through internal/core, because the ladder calls
// into the layers beneath it.
type inprocIndex struct {
	search    searchFn
	insert    func(p []float64) (int, error)
	writeFile func(path string) error
	coldStats func() (coldtier.TierStats, bool)
	close     func() error
	core      *core.Index
}

func coldConfig() coldtier.Config { return coldtier.Config{CacheBytes: coldCacheBytes} }

func buildPublic(w workload, d *data, coldDir string) (*inprocIndex, error) {
	opts := w.options()
	ix, err := brepartition.Build(d.div, d.points, &opts)
	if err != nil {
		return nil, err
	}
	out := &inprocIndex{
		search:    ix.SearchAppend,
		insert:    ix.Insert,
		writeFile: ix.WriteFile,
		coldStats: ix.ColdStats,
		close:     ix.DetachColdTier,
	}
	if w.cold {
		if err := ix.AttachColdTier(coldDir, coldConfig()); err != nil {
			return nil, err
		}
		out.search = func(_ []topk.Item, q []float64, k int) (core.Result, error) { return ix.SearchCold(q, k) }
	}
	return out, nil
}

func buildCore(w workload, d *data, coldDir string) (*inprocIndex, error) {
	ix, err := core.Build(d.div, d.points, w.options())
	if err != nil {
		return nil, err
	}
	out := &inprocIndex{
		search:    ix.SearchAppend,
		insert:    ix.Insert,
		writeFile: ix.WriteFile,
		coldStats: ix.ColdStats,
		close:     ix.CloseColdTier,
		core:      ix,
	}
	if w.cold {
		if err := ix.EnsureColdTier(coldDir, coldConfig()); err != nil {
			return nil, err
		}
		out.search = ix.SearchColdAppend
	}
	return out, nil
}

// heapMiB is the live heap after a forced collection. Two collections,
// because the first one's finalizers can free more.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// inprocState is one completed set-up of an in-process workload.
type inprocState struct {
	w       workload
	d       *data
	ix      *inprocIndex
	block   kernel.FlatBlock // the oracle's copy of the indexed points
	coldDir string
	setupS  float64 // raw seconds
	factor  float64 // speed factor of the box during set-up
	memMiB  float64
	// coldSearches counts searches sent to the cold tier, to prove
	// afterwards that none fell back to the hot path.
	coldSearches int
}

// setupInproc generates the data, builds the index, attaches the cold
// tier where the workload has one, and runs the warm-up queries. The
// returned setupS covers all of it except the two heap measurements.
func setupInproc(w workload, cfg config, round int) (*inprocState, error) {
	s := &inprocState{w: w, coldDir: filepath.Join(cfg.work, fmt.Sprintf("cold-%d", round))}
	t0 := time.Now()
	d, err := w.generate(cfg.seed)
	if err != nil {
		return nil, err
	}
	s.d = d
	generated := time.Since(t0)
	before := heapMiB()

	t0 = time.Now()
	build := buildPublic
	if cfg.traced {
		build = buildCore
	}
	if s.ix, err = build(w, d, s.coldDir); err != nil {
		return nil, err
	}
	for _, q := range d.queries[:w.warm] {
		if _, err := s.search(nil, q); err != nil {
			return nil, err
		}
	}
	s.setupS = (generated + time.Since(t0)).Seconds()
	s.factor = cfg.cal.factor()
	s.memMiB = heapMiB() - before
	s.block = kernel.Flatten(d.points)
	return s, nil
}

func (s *inprocState) search(dst []topk.Item, q []float64) (core.Result, error) {
	if s.w.cold {
		s.coldSearches++
	}
	return s.ix.search(dst, q, k)
}

func (s *inprocState) close() {
	s.ix.close()
	os.RemoveAll(s.coldDir)
}

func sameItems(got, want []topk.Item) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// searchPass is what one sweep over the queries measured.
type searchPass struct {
	searchMs []float64
	scanMs   []float64
	// pageReads is summed over pageReadSearches searches.
	pageReads, pageReadSearches int
	// factor is the speed factor of the box during the pass.
	factor float64
}

// pass runs every query once: the timed search, then the oracle scan
// over the same points, timed separately, whose answer the search must
// equal bit for bit.
func (s *inprocState) pass(cal *calibrator, rec *recorder, res *result, queries [][]float64, no int) searchPass {
	var p searchPass
	var dst []topk.Item
	var loops []float64
	root := rec.begin(no, "pass", -1)
	for i, q := range queries {
		qs := rec.begin(i, "query", root)
		sp := rec.begin(i, "search", qs)
		t0 := time.Now()
		got, err := s.search(dst[:0], q)
		t1 := time.Now()
		rec.end(sp)
		sp = rec.begin(i, "oracle", qs)
		want := scan.KNNBlock(s.d.kern, s.block, q, k)
		t2 := time.Now()
		rec.end(sp)
		rec.end(qs)
		loops = append(loops, cal.loop())

		res.Attempted++
		switch {
		case err != nil:
			res.fail("pass %d query %d: %v", no, i, err)
		case !sameItems(got.Items, want):
			res.fail("pass %d query %d: answer differs from the scan", no, i)
		}
		dst = got.Items
		p.searchMs = append(p.searchMs, ms(t1.Sub(t0)))
		p.scanMs = append(p.scanMs, ms(t2.Sub(t1)))
		p.pageReads += got.Stats.PageReads
	}
	p.pageReadSearches = len(queries)
	p.factor = speedFactor(loops)
	rec.end(root)
	return p
}

// timedPasses calls one until cfg.seconds have been measured, or exactly
// cfg.passes times. A pass that would overshoot the time by more than
// half its length is not started.
func timedPasses(cfg config, one func(no int) error) error {
	start := time.Now()
	for no := 0; ; no++ {
		t0 := time.Now()
		if err := one(no); err != nil {
			return err
		}
		if cfg.passes > 0 {
			if no+1 == cfg.passes {
				return nil
			}
			continue
		}
		if (time.Since(start) + time.Since(t0)/2).Seconds() > cfg.seconds {
			return nil
		}
	}
}

// passMetrics turns the passes of any workload into the search metrics:
// each time metric per pass and then the median across passes, except
// search_p95_ms, which pools every sample so that enough lie beyond it.
// qps is each pass's searches per second.
func passMetrics(res *result, passes []searchPass, qps []float64) {
	var p50, speedup, pooled, factors, perSecond []float64
	reads, searches := 0, 0
	for _, p := range passes {
		p50 = append(p50, median(p.searchMs))
		speedup = append(speedup, median(p.scanMs)/median(p.searchMs))
		for _, v := range p.searchMs {
			pooled = append(pooled, v*p.factor)
		}
		factors = append(factors, p.factor)
		perSecond = append(perSecond, 1/p.factor) // a rate divides by the factor
		reads += p.pageReads
		searches += p.pageReadSearches
	}
	res.Passes = len(passes)
	res.SearchSamples = len(pooled)
	res.setTimed("search_p50_ms", p50, factors)
	res.set("search_p95_ms", percentile(pooled, 0.95))
	res.setTimed("search_qps", qps, perSecond)
	res.setPasses("speedup_vs_scan", speedup)
	res.set("page_reads_per_query", float64(reads)/float64(searches))
}

// callerQPS is searches per second of the time one caller spent
// searching; the interleaved oracle scans are not part of it.
func callerQPS(p searchPass) float64 {
	total := 0.0
	for _, v := range p.searchMs {
		total += v
	}
	return float64(len(p.searchMs)) / (total / 1000)
}

func runInproc(w workload, cfg config, rec *recorder) (*result, error) {
	res := newResult(cfg, 1)
	var s *inprocState
	var setups, setupFactors []float64
	for round := 0; round < cfg.setups; round++ {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = setupInproc(w, cfg, round); err != nil {
			return nil, err
		}
		setups = append(setups, s.setupS)
		setupFactors = append(setupFactors, s.factor)
	}
	defer s.close()

	if cfg.traced {
		return res, runInprocTraced(s, cfg, rec, res)
	}

	var passes []searchPass
	var qps []float64
	_ = timedPasses(cfg, func(no int) error { // a wrong answer is counted, not returned
		p := s.pass(cfg.cal, nil, res, s.d.queries, no)
		passes = append(passes, p)
		qps = append(qps, callerQPS(p))
		return nil
	})
	passMetrics(res, passes, qps)
	res.setTimed("setup_s", setups, setupFactors)
	res.set("index_mem_mb", s.memMiB)
	if err := s.checkCold(res); err != nil {
		return nil, err
	}
	if err := s.reopen(cfg, res); err != nil {
		return nil, err
	}
	s.inserts(cfg, res)
	return res, nil
}

// checkCold proves that every cold search was answered by the tier.
func (s *inprocState) checkCold(res *result) error {
	if !s.w.cold {
		return nil
	}
	st, ok := s.ix.coldStats()
	if !ok {
		return fmt.Errorf("%s: no cold tier attached", s.w.name)
	}
	fallbacks := float64(int64(s.coldSearches) - st.Queries)
	res.Checks["coldtier.fallbacks"] = fallbacks
	if fallbacks != 0 {
		res.fail("%v cold searches fell back to the hot path", fallbacks)
	}
	return nil
}

// reopenRounds is how many times the saved index is loaded; reopen_s is
// their median.
const reopenRounds = 15

// reopen measures what a restart costs an embedder: load the saved index,
// re-attach the cold tier, answer one query correctly. It also gives the
// bytes the index occupies on disk per byte of vector data.
func (s *inprocState) reopen(cfg config, res *result) error {
	path := filepath.Join(cfg.work, "index.bpidx")
	if err := s.ix.writeFile(path); err != nil {
		return err
	}
	q := s.d.queries[0]
	want := scan.KNNBlock(s.d.kern, s.block, q, k)
	var secs, loops []float64
	for round := 0; round < reopenRounds; round++ {
		runtime.GC() // so that no round pays for collecting the previous round's index
		t0 := time.Now()
		ix, err := brepartition.ReadIndexFile(path)
		if err != nil {
			return err
		}
		var got brepartition.Result
		if s.w.cold {
			if err := ix.AttachColdTier(s.coldDir, coldConfig()); err != nil {
				return err
			}
			got, err = ix.SearchCold(q, k)
		} else {
			got, err = ix.Search(q, k)
		}
		secs = append(secs, time.Since(t0).Seconds())
		loops = cfg.cal.loops(loops, 10)
		res.Attempted++
		if err != nil || !sameItems(got.Items, want) {
			res.fail("reopen %d: first answer wrong (err %v)", round, err)
		}
		if err := ix.DetachColdTier(); err != nil {
			return err
		}
	}
	res.setTimed("reopen_s", secs, repeat(speedFactor(loops), len(secs)))

	diskBytes, err := dirSize(path)
	if err != nil {
		return err
	}
	dataBytes := int64(len(s.d.points) * s.d.dim * 8)
	if s.w.cold {
		st, _ := s.ix.coldStats()
		if diskBytes, err = dirSize(s.coldDir); err != nil {
			return err
		}
		dataBytes = st.DataBytes
	}
	res.set("disk_bytes_per_data_byte", float64(diskBytes)/float64(dataBytes))
	return nil
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func dirSize(path string) (int64, error) {
	var total int64
	err := filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// inserts times Index.Insert over the held-out rows, last because it
// changes the index, and then checks that searches still equal a scan
// over the grown point set.
func (s *inprocState) inserts(cfg config, res *result) {
	var insertMs, loops []float64
	for i, p := range s.d.extra {
		t0 := time.Now()
		id, err := s.ix.insert(p)
		insertMs = append(insertMs, ms(time.Since(t0)))
		res.Attempted++
		if err != nil || id != len(s.d.points)+i {
			res.fail("insert %d: id %d, err %v", i, id, err)
		}
		if i%10 == 0 {
			loops = append(loops, cfg.cal.loop())
		}
	}
	res.setTimed("insert_p50_ms", []float64{median(insertMs)}, []float64{speedFactor(loops)})

	grown := kernel.Flatten(append(append([][]float64(nil), s.d.points...), s.d.extra...))
	for i, q := range s.d.queries[:min(5, len(s.d.queries))] {
		got, err := s.ix.search(nil, q, k)
		res.Attempted++
		if err != nil || !sameItems(got.Items, scan.KNNBlock(s.d.kern, grown, q, k)) {
			res.fail("search %d after the inserts: answer differs from the scan (err %v)", i, err)
		}
	}
}
