package brepartition_test

import (
	"context"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"net/http"
	"path/filepath"
	"strings"
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
	// Index is the one index type: every constructor returns it, and its
	// method set is the union of what the in-memory, sharded and durable
	// kinds offered, with one signature each.
	var idx *brepartition.Index
	var _ func() time.Duration = idx.BuildTime
	var _ func([]float64, int) (brepartition.Result, error) = idx.Search
	var _ func([]topk.Item, []float64, int) (brepartition.Result, error) = idx.SearchAppend
	var _ func([]float64, int, float64) (brepartition.Result, error) = idx.SearchApprox
	// Query is the one method behind every named search, and what makes an
	// Index a Backend.
	var _ func([]topk.Item, *brepartition.Query) (brepartition.Result, error) = idx.Query
	var _ func([]float64, float64) ([]brepartition.Neighbor, brepartition.SearchStats, error) = idx.RangeSearch
	var _ func([][]float64, int, int) ([]brepartition.Result, error) = idx.BatchSearch
	var _ func([]float64) (int, error) = idx.Insert
	var _ func(int) (bool, error) = idx.Delete
	var _ func() error = idx.Sync
	var _ func() error = idx.Checkpoint
	var _ func() error = idx.Close
	var _ func() uint64 = idx.LastLSN
	var _ func() uint64 = idx.SyncedLSN
	var _ func() int64 = idx.WALSize
	var _ func() uint64 = idx.Version
	var _ func() int = idx.Shards
	var _ func() []int = idx.ShardSizes
	var _ func(string) error = idx.WriteFile
	var _ func(string) error = idx.WriteDir
	var _ func(string, brepartition.ColdTierOptions) error = idx.AttachColdTier
	var _ func([]float64, int) (brepartition.Result, error) = idx.SearchCold
	var _ func() (brepartition.ColdTierStats, bool) = idx.ColdStats
	var _ func() error = idx.DetachColdTier
	var _ error = brepartition.ErrNotDurable

	// A Backend is exactly the one query method: the engine schedules
	// queries and nothing else.
	var _ interface {
		Query([]topk.Item, *brepartition.Query) (brepartition.Result, error)
	} = brepartition.Backend(nil)
	var _ brepartition.Backend = interface {
		Query([]topk.Item, *brepartition.Query) (brepartition.Result, error)
	}(nil)
	// CacheSize is deprecated and ignored, but still compiles.
	var _ brepartition.EngineOptions = struct{ Workers, CacheSize int }{}
	var _ brepartition.Backend = idx
	var _ func(brepartition.Backend, *brepartition.EngineOptions) *brepartition.Engine = brepartition.NewEngine

	// The engine has one submission per query shape (Submit is the exact
	// shorthand) and explicit lifecycle semantics for serving layers.
	var eng *brepartition.Engine
	var _ func([]float64, int) *brepartition.Future = eng.Submit
	var _ func(brepartition.Query) *brepartition.Future = eng.SubmitQuery
	var _ func() int = eng.QueueDepth
	var _ func() = eng.Drain
	var _ func() error = eng.Close

	// Constructor shapes.
	var _ func(brepartition.Divergence, [][]float64, *brepartition.Options) (*brepartition.Index, error) = brepartition.Build
	var _ func(brepartition.Divergence, [][]float64, int, *brepartition.Options) (*brepartition.Index, error) = brepartition.BuildSharded
	var _ func(string) (*brepartition.Index, error) = brepartition.OpenSharded
	var _ func(string) (*brepartition.Index, error) = brepartition.ReadIndexFile
	var _ func(brepartition.Divergence, [][]float64, string, *brepartition.DurableOptions) (*brepartition.Index, error) = brepartition.BuildDurable
	var _ func(string, *brepartition.DurableOptions) (*brepartition.Index, error) = brepartition.OpenDurable

	// The serving layer: functional-option constructors (the positional
	// *Options parameters were consolidated behind ServeOption /
	// ClientOption), the single-index server, the multi-tenant registry,
	// and the remote client with its collection-scoped views.
	var _ func(string, ...brepartition.ServeOption) (*brepartition.Server, error) = brepartition.NewServer
	var _ func(string, ...brepartition.ServeOption) (*brepartition.Collections, error) = brepartition.OpenCollections
	var _ func(brepartition.DurableOptions) brepartition.ServeOption = brepartition.WithDurableConfig
	var _ func(brepartition.ServerOptions) brepartition.ServeOption = brepartition.WithServerConfig
	// WithCoalescing is gone with the request coalescer it tuned: the
	// window submitted each member as its own engine query, so it shared
	// no work and only added delay to every lone search.
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

// rootSurface is the root package's exported surface, counted the way
// scripts/loc_report.sh counts `go doc` output: package-level funcs
// (constructors included), methods on exported types, and exported
// type/const/var declarations, a grouped const or var block counting once.
const rootSurface = 137

// TestPublicAPISurfaceSize pins rootSurface, so the public API grows only
// through a deliberate edit of this number.
func TestPublicAPISurfaceSize(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "brepartition")
	if err != nil {
		t.Fatal(err)
	}
	funcs, methods, decls := len(pkg.Funcs), 0, len(pkg.Types)+len(pkg.Consts)+len(pkg.Vars)
	for _, typ := range pkg.Types {
		funcs += len(typ.Funcs)
		methods += len(typ.Methods)
	}
	if got := funcs + methods + decls; got != rootSurface {
		t.Fatalf("root exports %d symbols (%d funcs, %d methods, %d type/const/var declarations), pinned %d: "+
			"update rootSurface deliberately if the change is meant", got, funcs, methods, decls, rootSurface)
	}
}
