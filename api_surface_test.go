package brepartition_test

import (
	"context"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"brepartition"
	"brepartition/internal/topk"
)

// TestPublicAPISurface pins the public method signatures with compile-time
// assignments, so an accidental signature change (like BuildTime's old
// interface{ String() string } return) breaks this test file instead of
// silently breaking downstream users.
func TestPublicAPISurface(t *testing.T) {
	var idx *brepartition.Index
	var _ func() time.Duration = idx.BuildTime
	var _ func([]float64, int) (brepartition.Result, error) = idx.Search
	var _ func([]topk.Item, []float64, int) (brepartition.Result, error) = idx.SearchAppend
	var _ func([]float64, int, float64) (brepartition.Result, error) = idx.SearchApprox
	// ISSUE 23 removed SearchParallel from all three index kinds (and
	// EngineOptions.SubWorkers with it): the per-subspace fan-out never beat
	// the sequential filter. Query is the one method behind every named
	// search, and what makes an index kind a Backend.
	var _ func([]topk.Item, *brepartition.Query) (brepartition.Result, error) = idx.Query
	var _ func([]float64, float64) ([]brepartition.Neighbor, brepartition.SearchStats, error) = idx.RangeSearch
	var _ func([][]float64, int, int) ([]brepartition.Result, error) = idx.BatchSearch
	var _ func([]float64) (int, error) = idx.Insert
	var _ func(int) bool = idx.Delete
	var _ func() uint64 = idx.Version
	var _ func(string) error = idx.WriteFile
	var _ func(string, brepartition.ColdTierOptions) error = idx.AttachColdTier
	var _ func([]float64, int) (brepartition.Result, error) = idx.SearchCold
	var _ func() (brepartition.ColdTierStats, bool) = idx.ColdStats
	var _ func() error = idx.DetachColdTier

	var sx *brepartition.ShardedIndex
	var _ func([]float64, int) (brepartition.Result, error) = sx.Search
	var _ func([]topk.Item, *brepartition.Query) (brepartition.Result, error) = sx.Query
	var _ func([]float64, int, float64) (brepartition.Result, error) = sx.SearchApprox
	var _ func([][]float64, int) ([]brepartition.Result, error) = sx.BatchSearch
	var _ func([]float64, float64) ([]brepartition.Neighbor, brepartition.SearchStats, error) = sx.RangeSearch
	var _ func([]float64) (int, error) = sx.Insert
	var _ func(int) bool = sx.Delete
	var _ func(string) error = sx.WriteDir
	var _ func() uint64 = sx.Version
	var _ func(string, brepartition.ColdTierOptions) error = sx.AttachColdTier
	var _ func([]float64, int) (brepartition.Result, error) = sx.SearchCold
	var _ func() (brepartition.ColdTierStats, bool) = sx.ColdStats
	var _ func() error = sx.DetachColdTier

	var dx *brepartition.DurableIndex
	var _ func([]float64, int) (brepartition.Result, error) = dx.Search
	var _ func([]topk.Item, *brepartition.Query) (brepartition.Result, error) = dx.Query
	var _ func([]float64, int, float64) (brepartition.Result, error) = dx.SearchApprox
	var _ func([][]float64, int) ([]brepartition.Result, error) = dx.BatchSearch
	var _ func([]float64, float64) ([]brepartition.Neighbor, brepartition.SearchStats, error) = dx.RangeSearch
	var _ func([]float64) (int, error) = dx.Insert
	var _ func(int) (bool, error) = dx.Delete
	var _ func() error = dx.Sync
	var _ func() error = dx.Checkpoint
	var _ func() error = dx.Close
	var _ func() uint64 = dx.LastLSN
	var _ func() uint64 = dx.SyncedLSN
	var _ func() uint64 = dx.Version
	var _ func(brepartition.ColdTierOptions) error = dx.AttachColdTier
	var _ func([]float64, int) (brepartition.Result, error) = dx.SearchCold
	var _ func() (brepartition.ColdTierStats, bool) = dx.ColdStats
	var _ func() error = dx.DetachColdTier

	// All three index kinds are Engine backends, and a Backend is exactly
	// the one query method plus the mutation counter.
	var _ interface {
		Query([]topk.Item, *brepartition.Query) (brepartition.Result, error)
		Version() uint64
	} = brepartition.Backend(nil)
	var _ brepartition.Backend = interface {
		Query([]topk.Item, *brepartition.Query) (brepartition.Result, error)
		Version() uint64
	}(nil)
	var _ brepartition.EngineOptions = struct{ Workers, CacheSize int }{}
	var _ brepartition.Backend = idx
	var _ brepartition.Backend = sx
	var _ brepartition.Backend = dx
	var _ func(brepartition.Backend, *brepartition.EngineOptions) *brepartition.Engine = brepartition.NewEngine

	// The engine routes mutations as well as queries, and has explicit
	// lifecycle semantics for serving layers.
	var eng *brepartition.Engine
	var _ func([]float64) (int, error) = eng.Insert
	var _ func(int) (bool, error) = eng.Delete
	var _ func([]float64, int, float64) *brepartition.Future = eng.SubmitApprox
	var _ func([]float64, float64) *brepartition.Future = eng.SubmitRange
	var _ func() int = eng.QueueDepth
	var _ func() = eng.Drain
	var _ func() error = eng.Close

	// Constructor shapes.
	var _ func(brepartition.Divergence, [][]float64, *brepartition.Options) (*brepartition.Index, error) = brepartition.Build
	var _ func(brepartition.Divergence, [][]float64, int, *brepartition.Options) (*brepartition.ShardedIndex, error) = brepartition.BuildSharded
	var _ func(string) (*brepartition.ShardedIndex, error) = brepartition.OpenSharded
	var _ func(string) (*brepartition.Index, error) = brepartition.ReadIndexFile
	var _ func(brepartition.Divergence, [][]float64, string, *brepartition.DurableOptions) (*brepartition.DurableIndex, error) = brepartition.BuildDurable
	var _ func(string, *brepartition.DurableOptions) (*brepartition.DurableIndex, error) = brepartition.OpenDurable

	// The serving layer: functional-option constructors (the positional
	// *Options parameters were consolidated behind ServeOption /
	// ClientOption), the single-index server, the multi-tenant registry,
	// and the remote client with its collection-scoped views.
	var _ func(string, ...brepartition.ServeOption) (*brepartition.Server, error) = brepartition.NewServer
	var _ func(string, ...brepartition.ServeOption) (*brepartition.Collections, error) = brepartition.OpenCollections
	var _ func(brepartition.DurableOptions) brepartition.ServeOption = brepartition.WithDurableConfig
	var _ func(brepartition.ServerOptions) brepartition.ServeOption = brepartition.WithServerConfig
	var _ func(int, time.Duration) brepartition.ServeOption = brepartition.WithCoalescing
	var _ func(int, int) brepartition.ServeOption = brepartition.WithAdmission
	var _ func(time.Duration) brepartition.ServeOption = brepartition.WithMaintenance
	var srv *brepartition.Server
	var _ func() http.Handler = srv.Handler
	var _ func() brepartition.EngineStats = srv.Stats
	var _ func() error = srv.Reload
	var _ func() error = srv.Close
	var _ func() *brepartition.Collections = srv.Collections

	var cols *brepartition.Collections
	var _ func() http.Handler = cols.Handler
	var _ func(string, brepartition.CollectionSpec) (brepartition.CollectionInfo, error) = cols.Create
	var _ func(string) error = cols.Drop
	var _ func() []brepartition.CollectionInfo = cols.List
	var _ func() error = cols.Close

	var _ func(string, ...brepartition.ClientOption) *brepartition.Client = brepartition.NewClient
	var _ func() brepartition.ClientOption = brepartition.WithBinary
	var _ func(time.Duration) brepartition.ClientOption = brepartition.WithTimeout
	var cl *brepartition.Client
	var _ func(context.Context, []float64, int) ([]brepartition.Neighbor, error) = cl.Search
	var _ func(context.Context, [][]float64, int) ([][]brepartition.Neighbor, error) = cl.BatchSearch
	var _ func(context.Context, []float64, int, float64) ([]brepartition.Neighbor, error) = cl.SearchApprox
	var _ func(context.Context, []float64, float64) ([]brepartition.Neighbor, error) = cl.RangeSearch
	var _ func(context.Context, []float64) (int, error) = cl.Insert
	var _ func(context.Context, int) (bool, error) = cl.Delete
	var _ func(context.Context) error = cl.Reload
	var _ func(context.Context) error = cl.Checkpoint
	var _ func(string) *brepartition.RemoteCollection = cl.Collection
	var _ func(context.Context) ([]brepartition.CollectionInfo, error) = cl.Collections
	var _ func(context.Context, string, brepartition.CollectionSpec) (brepartition.CollectionInfo, error) = cl.CreateCollection
	var _ func(context.Context, string) error = cl.DropCollection

	var rc *brepartition.RemoteCollection
	var _ func(context.Context, []float64, int) ([]brepartition.Neighbor, error) = rc.Search
	var _ func(context.Context, []float64, int, brepartition.Filter) ([]brepartition.Neighbor, error) = rc.SearchFiltered
	var _ func(context.Context, [][]float64, int) ([][]brepartition.Neighbor, error) = rc.BatchSearch
	var _ func(context.Context, []float64, []string) (int, error) = rc.InsertTagged
	var _ func(context.Context, int) (bool, error) = rc.Delete
}

// TestShardedPublicRoundTrip drives the whole public sharded surface:
// build, search equality with the single index, engine over both
// backends, snapshot, reopen, mutate.
func TestShardedPublicRoundTrip(t *testing.T) {
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
