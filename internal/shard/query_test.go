package shard

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"brepartition/internal/approx"
	"brepartition/internal/bregman"
	"brepartition/internal/core"
	"brepartition/internal/engine"
	"brepartition/internal/kernel"
	"brepartition/internal/obs"
	"brepartition/internal/scan"
	"brepartition/internal/topk"
)

// querier is every layer's one query method.
type querier interface {
	Query(dst []topk.Item, q *core.Query) (core.Result, error)
}

// The named search methods this package's layers no longer carry, as the
// Query shapes they stood for; the per-mode tests call these.

func search(b querier, q []float64, k int) (core.Result, error) {
	return b.Query(nil, &core.Query{Vec: q, K: k})
}

func searchApprox(b querier, q []float64, k int, p float64) (core.Result, error) {
	return b.Query(nil, &core.Query{Vec: q, K: k, Approx: true, P: p})
}

func searchFilter(b querier, q []float64, k int, keep func(global int) bool) (core.Result, error) {
	return b.Query(nil, &core.Query{Vec: q, K: k, Keep: keep})
}

func searchCold(b querier, q []float64, k int) (core.Result, error) {
	return b.Query(nil, &core.Query{Vec: q, K: k, Cold: true})
}

func rangeSearch(b querier, q []float64, r float64) ([]topk.Item, core.SearchStats, error) {
	res, err := b.Query(nil, &core.Query{Vec: q, Range: true, Radius: r})
	return res.Items, res.Stats, err
}

// batchSearch is a batch at any layer: an engine over it submits every
// query, then gathers.
func batchSearch(b engine.Backend, queries [][]float64, k int) ([]core.Result, error) {
	return engine.New(b, engine.Config{}).BatchSearch(queries, k)
}

// engineQuerier runs a Query through an engine's queue.
type engineQuerier struct{ e *engine.Engine }

func (eq engineQuerier) Query(_ []topk.Item, q *core.Query) (core.Result, error) {
	return eq.e.SubmitQuery(*q).Wait()
}

// matrixLayer is one rung of the query path under TestQueryModeMatrix.
type matrixLayer struct {
	name   string
	b      querier
	insert func(p []float64) (int, error)
	delete func(id int) (bool, error)
	// sharded is the scatter-gather index under the layer (nil for the
	// core index): it says how many shard spans a traced query records,
	// which shard a mutation dirties, and compacts.
	sharded *Index
	// compact rebuilds shard s through the layer (nil when it has none).
	compact func(s int) error
	// tiers reports whether cold tiers were ensured at construction; a
	// tier is fresh until its shard is mutated or compacted.
	tiers bool
	// forcesCold reports that the layer gives every query the Cold
	// preference (a Handle with its cold tier enabled).
	forcesCold    bool
	coldFallbacks func() int64
	// shorthands are the named methods the layer keeps, each with the
	// Query shape it must equal.
	shorthands func(q []float64, k int, r float64) []shorthand
}

type shorthand struct {
	name string
	run  func() ([]topk.Item, error)
	q    core.Query
}

// matrixModel is the brute-force oracle: the live points by global id.
type matrixModel struct {
	kern kernel.Kernel
	pts  map[int][]float64
	// dirty marks shards (0 for the core layer) mutated or compacted since
	// the tiers were ensured.
	dirty map[int]bool
}

// distances returns the live ids ascending and their exact distances to q,
// through the same block kernel scan.KNNBlock streams.
func (m *matrixModel) distances(q []float64, keep func(int) bool) ([]int, kernel.FlatBlock) {
	ids := make([]int, 0, len(m.pts))
	for id := range m.pts {
		if keep == nil || keep(id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		rows[i] = m.pts[id]
	}
	return ids, kernel.Flatten(rows)
}

func (m *matrixModel) knn(q []float64, k int, keep func(int) bool) []topk.Item {
	ids, block := m.distances(q, keep)
	items := scan.KNNBlock(m.kern, block, q, k)
	for i := range items {
		items[i].ID = ids[items[i].ID]
	}
	return items
}

func (m *matrixModel) within(q []float64, r float64) []topk.Item {
	ids, block := m.distances(q, nil)
	dist := make([]float64, block.N)
	if block.N > 0 {
		m.kern.DistancesTo(q, block, dist)
	}
	var out []topk.Item
	for i, d := range dist {
		if d <= r {
			out = append(out, topk.Item{ID: ids[i], Score: d})
		}
	}
	slices.SortFunc(out, topk.Compare)
	return out
}

func matrixLayers(t *testing.T, div bregman.Divergence, pts [][]float64) []*matrixLayer {
	t.Helper()
	copts := core.Options{M: 3, Seed: 4}
	boolDelete := func(del func(int) bool) func(int) (bool, error) {
		return func(id int) (bool, error) { return del(id), nil }
	}
	compactOf := func(c func(int) (CompactStats, error)) func(int) error {
		return func(s int) error { _, err := c(s); return err }
	}
	items := func(res core.Result, err error) ([]topk.Item, error) { return res.Items, err }

	cix, err := core.Build(div, pts, copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cix.EnsureColdTier(t.TempDir(), shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cix.CloseColdTier() })
	layers := []*matrixLayer{{
		name: "core", b: cix, insert: cix.Insert, delete: boolDelete(cix.Delete),
		tiers: true, coldFallbacks: cix.ColdFallbacks,
		shorthands: func(q []float64, k int, r float64) []shorthand {
			return []shorthand{
				{"Search", func() ([]topk.Item, error) { return items(cix.Search(q, k)) }, core.Query{Vec: q, K: k}},
				{"SearchAppend", func() ([]topk.Item, error) { return items(cix.SearchAppend(nil, q, k)) }, core.Query{Vec: q, K: k}},
				{"SearchApprox(1)", func() ([]topk.Item, error) { return items(cix.SearchApprox(q, k, 1)) }, core.Query{Vec: q, K: k, Approx: true, P: 1}},
				{"SearchApprox(0.9)", func() ([]topk.Item, error) { return items(cix.SearchApprox(q, k, 0.9)) }, core.Query{Vec: q, K: k, Approx: true, P: 0.9}},
				{"RangeSearch", func() ([]topk.Item, error) { it, _, err := cix.RangeSearch(q, r); return it, err }, core.Query{Vec: q, Range: true, Radius: r}},
				{"SearchCold", func() ([]topk.Item, error) { return items(cix.SearchCold(q, k)) }, core.Query{Vec: q, K: k, Cold: true}},
				{"SearchColdAppend", func() ([]topk.Item, error) { return items(cix.SearchColdAppend(nil, q, k)) }, core.Query{Vec: q, K: k, Cold: true}},
			}
		},
	}}

	buildSharded := func(shards int) *Index {
		sx, err := Build(div, pts, Options{Shards: shards, Core: copts})
		if err != nil {
			t.Fatal(err)
		}
		if err := sx.EnsureColdTier(t.TempDir(), shardColdCfg()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sx.CloseColdTier() })
		return sx
	}
	for _, shards := range []int{1, 3} {
		sx := buildSharded(shards)
		layers = append(layers, &matrixLayer{
			name: map[int]string{1: "shard-S1", 3: "shard-S3"}[shards], b: sx,
			insert: sx.Insert, delete: boolDelete(sx.Delete), sharded: sx, compact: compactOf(sx.CompactShard),
			tiers: true, coldFallbacks: sx.ColdFallbacks,
			shorthands: func(q []float64, k int, _ float64) []shorthand {
				return []shorthand{{"Search", func() ([]topk.Item, error) { return items(sx.Search(q, k)) }, core.Query{Vec: q, K: k}}}
			},
		})
	}

	buildDurable := func(name string) *Durable {
		d, err := BuildDurable(div, pts, filepath.Join(t.TempDir(), name),
			DurableOptions{Shards: 3, Core: copts, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := buildDurable("durable")
	if err := d.EnsureColdTier(shardColdCfg()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	layers = append(layers, &matrixLayer{
		name: "durable", b: d, insert: d.Insert, delete: d.Delete, sharded: d.ix, compact: compactOf(d.CompactShard),
		tiers: true, coldFallbacks: d.ColdFallbacks,
		shorthands: func(q []float64, k int, _ float64) []shorthand {
			return []shorthand{{"Search", func() ([]topk.Item, error) { return items(d.Search(q, k)) }, core.Query{Vec: q, K: k}}}
		},
	})

	for _, cold := range []bool{false, true} {
		h := NewHandle(buildDurable("handle"))
		name := "handle-hot"
		if cold {
			name = "handle-cold"
			if err := h.EnableColdTier(shardColdCfg()); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() { h.Close() })
		layers = append(layers, &matrixLayer{
			name: name, b: h, insert: h.Insert, delete: h.Delete, sharded: h.Current().ix, compact: compactOf(h.CompactShard),
			tiers: cold, forcesCold: cold, coldFallbacks: h.ColdFallbacks,
		})
	}

	sx := buildSharded(3)
	e := engine.New(sx, engine.Config{Workers: 2})
	layers = append(layers, &matrixLayer{
		name: "engine", b: engineQuerier{e}, insert: e.Insert, delete: e.Delete, sharded: sx, compact: compactOf(sx.CompactShard),
		tiers: true, coldFallbacks: sx.ColdFallbacks,
		shorthands: func(q []float64, k int, _ float64) []shorthand {
			return []shorthand{
				{"Submit", func() ([]topk.Item, error) { return items(e.Submit(q, k).Wait()) }, core.Query{Vec: q, K: k}},
				{"BatchSearch", func() ([]topk.Item, error) {
					res, err := e.BatchSearch([][]float64{q}, k)
					return res[0].Items, err
				}, core.Query{Vec: q, K: k}},
			}
		},
	})
	return layers
}

// liveShards counts the shard slots holding points: the child spans a
// traced query records and the sub-queries a fork runs.
func (l *matrixLayer) liveShards() []int {
	if l.sharded == nil {
		return nil
	}
	var live []int
	for s, sl := range l.sharded.snapshotSlots() {
		if sl != nil {
			live = append(live, s)
		}
	}
	return live
}

// wantFallbacks is how many hot serves one cold-eligible query counts:
// every shard (the core index itself) whose tier is missing or stale.
func (l *matrixLayer) wantFallbacks(m *matrixModel) int64 {
	if l.sharded == nil {
		if m.dirty[0] {
			return 1
		}
		return 0
	}
	n := int64(0)
	for _, s := range l.liveShards() {
		if !l.tiers || m.dirty[s] {
			n++
		}
	}
	return n
}

// TestQueryModeMatrix runs every legal Query shape, traced and untraced,
// through every layer of the query path — core.Index, shard.Index (one
// and three shards), Durable, Handle (cold tier off and on) and the engine
// — against the brute-force model, interleaved with
// Insert, Delete and CompactShard. Items must be bit-identical to the
// oracle, every named shorthand must equal its Query form, cold fallbacks
// must count one per shard served hot, a traced query must record one
// child span per live shard, and every illegal shape must fail with its
// typed error from Validate.
func TestQueryModeMatrix(t *testing.T) {
	div := bregman.ItakuraSaito{}
	const n, d, k = 240, 8, 6
	pts := handlePoints(n, d, 5)
	extra := handlePoints(24, d, 6)
	queries := handlePoints(3, d, 7)

	for _, l := range matrixLayers(t, div, pts) {
		l := l
		t.Run(l.name, func(t *testing.T) {
			m := &matrixModel{kern: kernel.For(div), pts: map[int][]float64{}, dirty: map[int]bool{}}
			for id, p := range pts {
				m.pts[id] = p
			}
			touch := func(id int) {
				if l.sharded != nil {
					m.dirty[l.sharded.shardFor(id)] = true
				} else {
					m.dirty[0] = true
				}
			}

			check := func(stage string) {
				t.Helper()
				for qi, q := range queries {
					kth := m.knn(q, 2*k, nil)
					r := kth[len(kth)-1].Score
					keep := func(id int) bool { return id%3 != 1 }
					shapes := []struct {
						name string
						q    core.Query
						want []topk.Item
					}{
						{"exact", core.Query{Vec: q, K: k}, m.knn(q, k, nil)},
						{"approx-0.9", core.Query{Vec: q, K: k, Approx: true, P: 0.9}, nil},
						{"approx-1", core.Query{Vec: q, K: k, Approx: true, P: 1}, m.knn(q, k, nil)},
						{"filtered", core.Query{Vec: q, K: k, Keep: keep}, m.knn(q, k, keep)},
						{"filtered-approx-1", core.Query{Vec: q, K: k, Keep: keep, Approx: true, P: 1}, m.knn(q, k, keep)},
						{"range", core.Query{Vec: q, Range: true, Radius: r}, m.within(q, r)},
						{"cold", core.Query{Vec: q, K: k, Cold: true}, m.knn(q, k, nil)},
						// Cold is only a preference on the other shapes.
						{"cold-filtered", core.Query{Vec: q, K: k, Keep: keep, Cold: true}, m.knn(q, k, keep)},
						{"cold-range", core.Query{Vec: q, Range: true, Radius: r, Cold: true}, m.within(q, r)},
					}
					for _, sh := range shapes {
						for _, traced := range []bool{false, true} {
							query := sh.q
							var tr *obs.Trace
							if traced {
								tr = obs.NewTrace(obs.NextID())
								query.Trace = tr
							}
							before := l.coldFallbacks()
							res, err := l.b.Query(nil, &query)
							if err != nil {
								t.Fatalf("%s q%d %s traced=%v: %v", stage, qi, sh.name, traced, err)
							}
							where := stage + " " + sh.name
							if sh.want != nil {
								if !(len(res.Items) == 0 && len(sh.want) == 0) && !reflect.DeepEqual(res.Items, sh.want) {
									t.Fatalf("%s q%d traced=%v:\ngot  %v\nwant %v", where, qi, traced, res.Items, sh.want)
								}
							} else {
								m.checkApprox(t, where, q, k, res)
							}
							if sh.q.Range && (res.Stats.FilterTime <= 0 || res.Stats.RefineTime <= 0) {
								t.Fatalf("%s: range phases untimed: filter %v refine %v", where, res.Stats.FilterTime, res.Stats.RefineTime)
							}
							want := int64(0)
							if query.Cold = query.Cold || l.forcesCold; query.ServesCold() {
								want = l.wantFallbacks(m)
							}
							if got := l.coldFallbacks() - before; got != want {
								t.Fatalf("%s traced=%v: %d cold fallbacks, want %d (dirty %v)", where, traced, got, want, m.dirty)
							}
							if traced {
								if spans := tr.Shards(); len(spans) != len(l.liveShards()) {
									t.Fatalf("%s: %d shard spans, want one per live shard %v", where, len(spans), l.liveShards())
								}
								tr.Release()
							}
						}
					}

					// The sharded coefficient is the loosest shard's, not a
					// hard-coded 1.
					if l.sharded != nil {
						live := l.liveShards()
						ps := math.Pow(0.9, 1/float64(len(live)))
						if len(live) == 1 {
							ps = 0.9
						}
						want := 1.0
						slots := l.sharded.snapshotSlots()
						for _, s := range live {
							sub, err := slots[s].sub.Query(nil, &core.Query{Vec: q, K: k, Approx: true, P: ps})
							if err != nil {
								t.Fatal(err)
							}
							want = math.Min(want, sub.Stats.ApproxC)
						}
						got, err := l.b.Query(nil, &core.Query{Vec: q, K: k, Approx: true, P: 0.9})
						if err != nil {
							t.Fatal(err)
						}
						if got.Stats.ApproxC != want {
							t.Fatalf("%s q%d: merged ApproxC %v, want the smallest per-shard coefficient %v", stage, qi, got.Stats.ApproxC, want)
						}
					}

					if l.shorthands != nil {
						for _, sh := range l.shorthands(q, k, r) {
							got, err := sh.run()
							if err != nil {
								t.Fatalf("%s %s: %v", stage, sh.name, err)
							}
							want, err := l.b.Query(nil, &sh.q)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want.Items) {
								t.Fatalf("%s: %s differs from its Query form\ngot  %v\nwant %v", stage, sh.name, got, want.Items)
							}
						}
					}
				}
			}

			checkIllegal := func() {
				t.Helper()
				q := queries[0]
				bad := append([]float64(nil), q...)
				bad[2] = -1 // outside Itakura–Saito's positive domain
				keep := func(int) bool { return true }
				for _, c := range []struct {
					name string
					q    core.Query
					want error
				}{
					{"k=0", core.Query{Vec: q}, core.ErrK},
					{"k<0", core.Query{Vec: q, K: -2}, core.ErrK},
					{"k=0 cold", core.Query{Vec: q, Cold: true}, core.ErrK},
					{"keep with p<1", core.Query{Vec: q, K: k, Approx: true, P: 0.5, Keep: keep}, core.ErrShape},
					{"range with k", core.Query{Vec: q, K: k, Range: true, Radius: 1}, core.ErrShape},
					{"range with keep", core.Query{Vec: q, Range: true, Radius: 1, Keep: keep}, core.ErrShape},
					{"p=0", core.Query{Vec: q, K: k, Approx: true}, approx.ErrGuarantee},
					{"p>1", core.Query{Vec: q, K: k, Approx: true, P: 1.5}, approx.ErrGuarantee},
					{"p NaN", core.Query{Vec: q, K: k, Approx: true, P: math.NaN()}, approx.ErrGuarantee},
					{"wrong dim", core.Query{Vec: q[:d-1], K: k}, core.ErrDim},
					{"wrong dim range", core.Query{Vec: q[:d-1], Range: true, Radius: 1}, core.ErrDim},
					{"out of domain", core.Query{Vec: bad, K: k}, bregman.ErrDomain},
					{"negative radius", core.Query{Vec: q, Range: true, Radius: -1}, core.ErrRadius},
					{"NaN radius", core.Query{Vec: q, Range: true, Radius: math.NaN()}, core.ErrRadius},
				} {
					if _, err := l.b.Query(nil, &c.q); !errors.Is(err, c.want) {
						t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
					}
					if err := c.q.Validate(div, d); !errors.Is(err, c.want) {
						t.Fatalf("%s: Validate = %v, want %v", c.name, err, c.want)
					}
				}
			}

			check("built")
			checkIllegal()

			for _, p := range extra[:12] {
				id, err := l.insert(p)
				if err != nil {
					t.Fatal(err)
				}
				m.pts[id] = p
				touch(id)
			}
			for id := 5; id < n; id += 9 {
				if ok, err := l.delete(id); err != nil || !ok {
					t.Fatalf("delete %d: %v %v", id, ok, err)
				}
				delete(m.pts, id)
				touch(id)
			}
			check("mutated")

			if l.compact != nil {
				if err := l.compact(0); err != nil {
					t.Fatal(err)
				}
				m.dirty[0] = true // the fresh slot carries no tier
				check("compacted")
			}

			for _, p := range extra[12:] {
				id, err := l.insert(p)
				if err != nil {
					t.Fatal(err)
				}
				m.pts[id] = p
				touch(id)
			}
			for id := 2; id < n; id += 31 {
				if _, ok := m.pts[id]; !ok {
					continue
				}
				if ok, err := l.delete(id); err != nil || !ok {
					t.Fatalf("delete %d: %v %v", id, ok, err)
				}
				delete(m.pts, id)
				touch(id)
			}
			check("mutated again")
			checkIllegal()
		})
	}
}

// checkApprox validates a P < 1 answer, which need not be the exact kNN:
// at most k distinct live ids, each with its exact distance, ascending.
func (m *matrixModel) checkApprox(t *testing.T, where string, q []float64, k int, res core.Result) {
	t.Helper()
	if len(res.Items) > k {
		t.Fatalf("%s: %d items for k=%d", where, len(res.Items), k)
	}
	seen := map[int]bool{}
	for i, it := range res.Items {
		p, live := m.pts[it.ID]
		if !live || seen[it.ID] {
			t.Fatalf("%s: item %d names dead or repeated id %d", where, i, it.ID)
		}
		seen[it.ID] = true
		if want := m.kern.Distance(p, q); it.Score != want {
			t.Fatalf("%s: id %d scored %v, exact distance %v", where, it.ID, it.Score, want)
		}
		if i > 0 && topk.Compare(res.Items[i-1], it) > 0 {
			t.Fatalf("%s: items out of order at %d", where, i)
		}
	}
}
