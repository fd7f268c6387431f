package brepartition_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"brepartition"
)

func durablePoints(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	points := make([][]float64, n)
	for i := range points {
		p := make([]float64, dim)
		for j := range p {
			p[j] = 1.0 + 2*float64(i%3) + 0.25*rng.Float64()
		}
		points[i] = p
	}
	return points
}

// bruteForce is BruteForce over the points that are live (non-nil) and
// that keep admits (nil admits all), with the answer's ids mapped back to
// the points' indexes. The subset keeps id order, so ties break by id
// exactly as in the index.
func bruteForce(pts [][]float64, q []float64, k int, keep func(int) bool) []brepartition.Neighbor {
	var ids []int
	var sub [][]float64
	for id, p := range pts {
		if p != nil && (keep == nil || keep(id)) {
			ids = append(ids, id)
			sub = append(sub, p)
		}
	}
	out := brepartition.BruteForce(brepartition.ItakuraSaito(), sub, q, k)
	for i := range out {
		out[i].ID = ids[out[i].ID]
	}
	return out
}

// TestIndexOracle drives the one Index type through every construction
// path. Each path answers every legal Query shape — exact, approximate at
// p = 1, filtered, range, and cold after AttachColdTier — and then an
// Insert and a Delete, all checked bit for bit against BruteForce over the
// same points.
func TestIndexOracle(t *testing.T) {
	div := brepartition.ItakuraSaito()
	points := apiTestPoints()
	_, queries := apiTestIndex(t)
	opts := &brepartition.Options{M: 4}
	paths := []struct {
		name   string
		shards int
		open   func(dir string) (*brepartition.Index, error)
	}{
		{"Build", 1, func(string) (*brepartition.Index, error) {
			return brepartition.Build(div, points, opts)
		}},
		{"BuildSharded", 4, func(string) (*brepartition.Index, error) {
			return brepartition.BuildSharded(div, points, 4, opts)
		}},
		{"BuildDurable-OpenDurable", 3, func(dir string) (*brepartition.Index, error) {
			root := filepath.Join(dir, "durable")
			dx, err := brepartition.BuildDurable(div, points, root,
				&brepartition.DurableOptions{Shards: 3, Core: *opts, CheckpointBytes: -1})
			if err == nil {
				err = dx.Close()
			}
			if err != nil {
				return nil, err
			}
			return brepartition.OpenDurable(root, nil)
		}},
		{"WriteFile-ReadIndexFile", 1, func(dir string) (*brepartition.Index, error) {
			path := filepath.Join(dir, "index.bpidx")
			ix, err := brepartition.Build(div, points, opts)
			if err == nil {
				err = ix.WriteFile(path)
			}
			if err != nil {
				return nil, err
			}
			return brepartition.ReadIndexFile(path)
		}},
		{"WriteDir-OpenSharded", 1, func(dir string) (*brepartition.Index, error) {
			snap := filepath.Join(dir, "snap")
			ix, err := brepartition.Build(div, points, opts)
			if err == nil {
				err = ix.WriteDir(snap)
			}
			if err != nil {
				return nil, err
			}
			return brepartition.OpenSharded(snap)
		}},
	}
	const k = 7
	keep := func(id int) bool { return id%3 != 0 }
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			dir := t.TempDir()
			ix, err := path.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			if ix.Shards() != path.shards || ix.N() != len(points) || ix.Dim() != len(points[0]) {
				t.Fatalf("geometry: shards=%d N=%d Dim=%d", ix.Shards(), ix.N(), ix.Dim())
			}
			if err := ix.AttachColdTier(filepath.Join(dir, "cold"), brepartition.ColdTierOptions{}); err != nil {
				t.Fatal(err)
			}
			live := append([][]float64(nil), points...)
			check := func(what string, q brepartition.Query, want []brepartition.Neighbor) {
				t.Helper()
				res, err := ix.Query(nil, &q)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := brepartition.Neighbors(res); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s != BruteForce\ngot  %v\nwant %v", what, got, want)
				}
			}
			shapes := func(q []float64) {
				t.Helper()
				want := bruteForce(live, q, k, nil)
				check("exact", brepartition.Query{Vec: q, K: k}, want)
				check("approx p=1", brepartition.Query{Vec: q, K: k, Approx: true, P: 1}, want)
				check("filtered", brepartition.Query{Vec: q, K: k, Keep: keep}, bruteForce(live, q, k, keep))
				check("cold", brepartition.Query{Vec: q, K: k, Cold: true}, want)
				r := want[k-1].Distance
				all := bruteForce(live, q, len(live), nil)
				n := 0
				for n < len(all) && all[n].Distance <= r {
					n++
				}
				check("range", brepartition.Query{Vec: q, Range: true, Radius: r}, all[:n])
			}
			for _, q := range queries[:4] {
				shapes(q)
			}
			if st, ok := ix.ColdStats(); !ok || st.Queries == 0 {
				t.Fatalf("cold tier served no query: %+v, attached %v", st, ok)
			}

			id, err := ix.Insert(queries[0])
			if err != nil || id != len(points) {
				t.Fatalf("insert: id %d, err %v", id, err)
			}
			live = append(live, queries[0])
			if ok, err := ix.Delete(5); err != nil || !ok {
				t.Fatalf("delete of a live id: %v %v", ok, err)
			}
			if ok, err := ix.Delete(5); err != nil || ok {
				t.Fatalf("second delete must be a no-op: %v %v", ok, err)
			}
			live[5] = nil
			if ix.Live() != len(points) || ix.N() != len(points)+1 {
				t.Fatalf("after the mutations: N=%d Live=%d", ix.N(), ix.Live())
			}
			for _, q := range [][]float64{queries[0], points[5], queries[1]} {
				shapes(q)
			}
		})
	}

	t.Run("ShardedPublicRoundTrip", testShardedPublicRoundTrip)
	t.Run("DurablePublicRoundTrip", testDurablePublicRoundTrip)
}

// TestIndexShapeErrors pins the errors of methods an index's shape does
// not support: the durable-only methods without a directory, and WriteFile
// on more than one shard or with tombstones its single-file format cannot
// carry.
func TestIndexShapeErrors(t *testing.T) {
	idx, _ := apiTestIndex(t)
	if err := idx.Sync(); err != brepartition.ErrNotDurable {
		t.Fatalf("Sync: %v, want ErrNotDurable", err)
	}
	if err := idx.Checkpoint(); err != brepartition.ErrNotDurable {
		t.Fatalf("Checkpoint: %v, want ErrNotDurable", err)
	}
	if idx.LastLSN() != 0 || idx.SyncedLSN() != 0 || idx.WALSize() != 0 {
		t.Fatal("an index without a WAL reports WAL positions")
	}
	sx, err := brepartition.BuildSharded(brepartition.ItakuraSaito(), apiTestPoints(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.WriteFile(filepath.Join(t.TempDir(), "x.bpidx")); err == nil {
		t.Fatal("WriteFile of a two-shard index succeeded")
	}
	if ok, err := idx.Delete(7); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := idx.WriteFile(filepath.Join(t.TempDir(), "x.bpidx")); err == nil {
		t.Fatal("WriteFile of an index with a tombstone succeeded")
	}
}

// testShardedPublicRoundTrip drives the whole public sharded surface:
// build, search equality with the single index, engine over both
// backends, snapshot, reopen, mutate.
func testShardedPublicRoundTrip(t *testing.T) {
	idx, queries := apiTestIndex(t)
	// The same deterministic points apiTestIndex indexes, sharded 4 ways.
	sx, err := brepartition.BuildSharded(brepartition.ItakuraSaito(), apiTestPoints(), 4, &brepartition.Options{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 4 || sx.N() != idx.N() || sx.Dim() != idx.Dim() {
		t.Fatalf("sharded geometry: shards=%d N=%d Dim=%d", sx.Shards(), sx.N(), sx.Dim())
	}

	const k = 7
	for _, q := range queries {
		want, err := idx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(brepartition.Neighbors(got), brepartition.Neighbors(want)) {
			t.Fatalf("sharded != single-index\ngot  %v\nwant %v",
				brepartition.Neighbors(got), brepartition.Neighbors(want))
		}
	}

	// An Engine drives either backend identically.
	eng := brepartition.NewEngine(sx, &brepartition.EngineOptions{Workers: 4})
	results, err := eng.BatchSearch(queries, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, _ := idx.Search(q, k)
		if !reflect.DeepEqual(brepartition.Neighbors(results[i]), brepartition.Neighbors(want)) {
			t.Fatalf("engine-over-sharded query %d diverged", i)
		}
	}
	if st := eng.Stats(); st.Queries != int64(len(queries)) {
		t.Fatalf("engine stats queries = %d, want %d", st.Queries, len(queries))
	}

	// Snapshot → reopen → identical answers, still mutable.
	dir := filepath.Join(t.TempDir(), "snap")
	if err := sx.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	lx, err := brepartition.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:4] {
		want, _ := sx.Search(q, k)
		got, err := lx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Items, want.Items) {
			t.Fatal("reopened snapshot answers differently")
		}
	}
	id, err := lx.Insert(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := lx.Search(queries[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].ID != id || res.Items[0].Score != 0 {
		t.Fatalf("inserted query point not first: %+v", res.Items[0])
	}
}

// testDurablePublicRoundTrip drives the public durable API end to end:
// build → mutate → crash-free reopen → identical answers, with an Engine
// serving queries over the durable index while it is mutated.
func testDurablePublicRoundTrip(t *testing.T) {
	root := filepath.Join(t.TempDir(), "durable")
	points := durablePoints(400, 12)
	dx, err := brepartition.BuildDurable(brepartition.ItakuraSaito(), points, root, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The durable index must answer exactly like a plain sharded build.
	sx, err := brepartition.BuildSharded(brepartition.ItakuraSaito(), points, dx.Shards(), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := points[17]
	want, err := sx.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dx.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Items {
		if got.Items[i] != want.Items[i] {
			t.Fatalf("durable answer diverged at rank %d: %v != %v", i, got.Items[i], want.Items[i])
		}
	}

	// Mutations go to the durable index; the engine beside it sees them.
	eng := brepartition.NewEngine(dx, nil)
	extra := append([]float64(nil), q...)
	id, err := dx.Insert(extra)
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("durable insert assigned %d, want 400", id)
	}
	ok, err := dx.Delete(3)
	if err != nil || !ok {
		t.Fatalf("durable delete: %v %v", ok, err)
	}
	res, err := eng.BatchSearch([][]float64{q}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Items[0].Score != 0 {
		t.Fatalf("engine query over durable backend: %+v", res[0].Items)
	}

	if dx.SyncedLSN() != dx.LastLSN() || dx.LastLSN() == 0 {
		t.Fatalf("default policy must ack-sync every mutation: synced=%d last=%d",
			dx.SyncedLSN(), dx.LastLSN())
	}
	if err := dx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := dx.Close(); err != nil {
		t.Fatal(err)
	}

	rx, err := brepartition.OpenDurable(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if rx.N() != 401 || rx.Live() != 400 {
		t.Fatalf("recovered N=%d Live=%d, want 401/400", rx.N(), rx.Live())
	}
	rres, err := rx.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Items[0].Score != 0 {
		t.Fatalf("recovered index lost the acknowledged insert: %+v", rres.Items)
	}
	deleted := false
	for _, nb := range brepartition.Neighbors(rres) {
		if nb.ID == 3 {
			deleted = true
		}
	}
	if deleted {
		t.Fatal("recovered index serves the deleted id")
	}

	// And it keeps mutating durably after recovery.
	if _, err := rx.Insert(points[0]); err != nil {
		t.Fatal(err)
	}
	if err := rx.Sync(); err != nil {
		t.Fatal(err)
	}
}
