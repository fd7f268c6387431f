// Package collection is the multi-tenant index registry: one breserved
// process hosts many named collections, each an independent durable
// sharded index with its own divergence, geometry, shard layout, tag
// store, and admission quota.
//
// Directory layout under the registry root:
//
//	root/collections/<name>/spec.json      — the collection's CollectionSpec
//	root/collections/<name>/durable/       — its WAL + snapshot (shard.Durable)
//	root/collections/<name>/tags.log       — its append-only tag log
//
// Legacy adoption: a root that carries wal/ and snapshot/ directly — the
// layout every pre-collections breserved wrote — is adopted as the
// "default" collection's durable directory in place. Nothing moves on
// disk; old deployments upgrade by restarting, and the files stay
// downgrade-compatible.
//
// Lifecycle is crash-atomic by construction: Create stages the full
// collection under a hidden .staging- directory and commits it with a
// single rename; Drop renames to a hidden .trash- directory before
// deleting. A crash at any point leaves either a fully present or a
// fully absent collection, and Open sweeps hidden leftovers.
package collection

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"brepartition/internal/bregman"
	"brepartition/internal/coldtier"
	"brepartition/internal/shard"
	"brepartition/internal/wire"
)

const (
	collectionsSubdir = "collections"
	durableSubdir     = "durable"
	specFile          = "spec.json"
	tagsFile          = "tags.log"
	stagingPrefix     = ".staging-"
	trashPrefix       = ".trash-"
)

// Options configures a registry.
type Options struct {
	// Durable is the template every collection's shard.DurableOptions
	// derives from: sync policy, segment size, and checkpoint threshold
	// apply to all collections; Shards, Dim, and Core.M are overridden by
	// each collection's spec (spec zeros fall back to the template).
	Durable shard.DurableOptions
}

// durableFor specializes the template to one collection's spec.
func (o Options) durableFor(spec wire.CollectionSpec) shard.DurableOptions {
	d := o.Durable
	d.Dim = spec.Dim
	if spec.Shards > 0 {
		d.Shards = spec.Shards
	}
	if spec.M > 0 {
		d.Core.M = spec.M
	}
	return d
}

// Collection is one open named index: a hot-swappable durable handle plus
// the tag store filtered search matches against.
type Collection struct {
	Name string
	Spec wire.CollectionSpec
	// Handle is the swappable serving reference; reloads go through
	// Reopen.
	Handle *shard.Handle
	// Tags is the collection's metadata tag store.
	Tags *TagStore
	// Reopen opens a fresh durable generation over the collection's
	// directory — the closure Handle.Reload swaps in.
	Reopen func() (*shard.Durable, error)
}

// Info snapshots the collection's listing entry.
func (c *Collection) Info() wire.CollectionInfo {
	info := wire.CollectionInfo{
		Name:     c.Name,
		Spec:     c.Spec,
		Status:   "ok",
		N:        c.Handle.N(),
		Live:     c.Handle.Live(),
		Version:  c.Handle.Version(),
		WALBytes: c.Handle.WALSize(),
	}
	if err := c.Handle.Err(); err != nil {
		info.Status = "degraded: " + err.Error()
	}
	return info
}

// Predicate compiles a wire filter into the id predicate the leaf scan
// consumes (nil filter → nil predicate → unfiltered search).
func (c *Collection) Predicate(f *wire.Filter) (func(id int) bool, error) {
	if f == nil {
		return nil, nil
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return c.Tags.Predicate(f.Tags, f.Mode == wire.FilterAll), nil
}

// Registry is the set of open collections under one root directory.
type Registry struct {
	root string
	opts Options

	mu   sync.RWMutex
	cols map[string]*Collection
	// legacyDefault: the default collection's durable dir is the root
	// itself (pre-collections layout); it cannot be dropped.
	legacyDefault bool
}

// ValidateSpec rejects specs no collection can be built from.
func ValidateSpec(spec wire.CollectionSpec) error {
	if _, err := bregman.ByName(spec.Divergence); err != nil {
		return fmt.Errorf("%w: %v", wire.ErrBadCollection, err)
	}
	if spec.Dim < 1 || spec.Dim > wire.MaxDim {
		return fmt.Errorf("%w: dim %d out of range", wire.ErrBadCollection, spec.Dim)
	}
	if spec.M < 0 || spec.Shards < 0 {
		return fmt.Errorf("%w: negative m or shards", wire.ErrBadCollection)
	}
	if q := spec.Quota; q != nil && (q.MaxInflight < 0 || q.MaxQueue < 0) {
		return fmt.Errorf("%w: negative quota", wire.ErrBadCollection)
	}
	if c := spec.Cold; c != nil {
		if c.Bits < 0 || c.Bits > 16 {
			return fmt.Errorf("%w: cold tier bits %d out of range [0,16]", wire.ErrBadCollection, c.Bits)
		}
		if c.CacheBytes < 0 || c.Prefetch < 0 {
			return fmt.Errorf("%w: negative cold tier cache or prefetch", wire.ErrBadCollection)
		}
	}
	return nil
}

// ColdConfig translates a spec's cold section into a coldtier.Config
// (zero Config when the spec does not opt in).
func ColdConfig(spec wire.CollectionSpec) (coldtier.Config, bool) {
	c := spec.Cold
	if c == nil {
		return coldtier.Config{}, false
	}
	return coldtier.Config{Bits: c.Bits, CacheBytes: c.CacheBytes, Prefetch: c.Prefetch}, true
}

// Open opens every collection under root (creating the directory tree if
// needed), adopting a legacy single-index root as the default collection.
// Hidden staging/trash leftovers from a crashed Create or Drop are swept.
func Open(root string, opts Options) (*Registry, error) {
	r := &Registry{root: root, opts: opts, cols: make(map[string]*Collection)}
	colRoot := filepath.Join(root, collectionsSubdir)
	if err := os.MkdirAll(colRoot, 0o755); err != nil {
		return nil, err
	}

	// Legacy adoption: a pre-collections root serves as "default" in place.
	if dirExists(filepath.Join(root, "wal")) || dirExists(filepath.Join(root, "snapshot")) {
		c, err := r.openLegacyDefault()
		if err != nil {
			return nil, fmt.Errorf("collection: adopting legacy root as %q: %w", wire.DefaultCollection, err)
		}
		r.cols[wire.DefaultCollection] = c
		r.legacyDefault = true
	}

	entries, err := os.ReadDir(colRoot)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() {
			continue
		}
		if len(name) > 0 && name[0] == '.' {
			// Crashed staging or trash: fully absent by contract, sweep it.
			os.RemoveAll(filepath.Join(colRoot, name))
			continue
		}
		if !wire.ValidName(name) {
			return nil, fmt.Errorf("collection: directory %q is not a valid collection name", name)
		}
		if _, dup := r.cols[name]; dup {
			return nil, fmt.Errorf("collection: %q exists both as legacy root and directory", name)
		}
		c, err := r.openAt(name, filepath.Join(colRoot, name))
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("collection: opening %q: %w", name, err)
		}
		r.cols[name] = c
	}
	return r, nil
}

// openLegacyDefault opens the root itself as the default collection,
// synthesizing its spec from the recovered index.
func (r *Registry) openLegacyDefault() (*Collection, error) {
	dopts := r.opts.Durable
	d, err := shard.OpenDurable(r.root, dopts)
	if err != nil {
		return nil, err
	}
	tags, err := OpenTags(filepath.Join(r.root, tagsFile))
	if err != nil {
		d.Close()
		return nil, err
	}
	spec := wire.CollectionSpec{
		Divergence: d.Index().Divergence().Name(),
		Dim:        d.Index().Dim(),
		M:          d.Index().M(),
		Shards:     d.Index().Shards(),
	}
	root := r.root
	return &Collection{
		Name:   wire.DefaultCollection,
		Spec:   spec,
		Handle: shard.NewHandle(d),
		Tags:   tags,
		Reopen: func() (*shard.Durable, error) { return shard.OpenDurable(root, dopts) },
	}, nil
}

// openAt opens one collection directory: spec.json, durable state, tags.
func (r *Registry) openAt(name, dir string) (*Collection, error) {
	spec, err := readSpec(filepath.Join(dir, specFile))
	if err != nil {
		return nil, err
	}
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	dopts := r.opts.durableFor(spec)
	durDir := filepath.Join(dir, durableSubdir)
	d, err := shard.OpenDurable(durDir, dopts)
	if err != nil {
		return nil, err
	}
	tags, err := OpenTags(filepath.Join(dir, tagsFile))
	if err != nil {
		d.Close()
		return nil, err
	}
	h := shard.NewHandle(d)
	if cfg, ok := ColdConfig(spec); ok {
		// Spec-level opt-in: tiers build (or reopen) now, so the collection
		// serves under its memory budget from the first query. Shards that
		// fill up afterwards serve hot until the next reload re-ensures.
		if err := h.EnableColdTier(cfg); err != nil {
			tags.Close()
			d.Close()
			return nil, fmt.Errorf("collection: cold tier for %q: %w", name, err)
		}
	}
	return &Collection{
		Name:   name,
		Spec:   spec,
		Handle: h,
		Tags:   tags,
		Reopen: func() (*shard.Durable, error) { return shard.OpenDurable(durDir, dopts) },
	}, nil
}

// Create builds a new empty collection from spec and opens it. The
// staging directory holds the complete collection (spec.json, an empty
// durable index, an empty tag log) before one rename commits it; a crash
// mid-create leaves only hidden staging litter Open sweeps.
func (r *Registry) Create(name string, spec wire.CollectionSpec) (*Collection, error) {
	if !wire.ValidName(name) {
		return nil, fmt.Errorf("%w: %q", wire.ErrBadCollection, name)
	}
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cols[name]; ok {
		return nil, fmt.Errorf("%w: %q", wire.ErrCollectionExists, name)
	}

	colRoot := filepath.Join(r.root, collectionsSubdir)
	staging := filepath.Join(colRoot, stagingPrefix+name)
	final := filepath.Join(colRoot, name)
	os.RemoveAll(staging)
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			os.RemoveAll(staging)
		}
	}()

	div, err := bregman.ByName(spec.Divergence)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", wire.ErrBadCollection, err)
	}
	spec.Divergence = div.Name() // canonical name, aliases resolved
	if err := writeSpec(filepath.Join(staging, specFile), spec); err != nil {
		return nil, err
	}
	d, err := shard.BuildDurable(div, nil, filepath.Join(staging, durableSubdir), r.opts.durableFor(spec))
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(staging, final); err != nil {
		return nil, err
	}
	ok = true

	c, err := r.openAt(name, final)
	if err != nil {
		return nil, err
	}
	r.cols[name] = c
	return c, nil
}

// Get returns the named open collection.
func (r *Registry) Get(name string) (*Collection, error) {
	r.mu.RLock()
	c, ok := r.cols[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", wire.ErrNoSuchCollection, name)
	}
	return c, nil
}

// List returns every open collection in name order.
func (r *Registry) List() []*Collection {
	r.mu.RLock()
	out := make([]*Collection, 0, len(r.cols))
	for _, c := range r.cols {
		out = append(out, c)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Drop closes and permanently deletes the named collection. The rename
// into a hidden trash directory is the commit point: after it, the
// collection is gone even if the process dies before RemoveAll finishes.
// A legacy-adopted default cannot be dropped — its files ARE the root.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cols[name]
	if !ok {
		return fmt.Errorf("%w: %q", wire.ErrNoSuchCollection, name)
	}
	if name == wire.DefaultCollection && r.legacyDefault {
		return fmt.Errorf("collection: %q is the legacy server root and cannot be dropped", name)
	}
	c.Handle.Close()
	c.Tags.Close()
	delete(r.cols, name)
	colRoot := filepath.Join(r.root, collectionsSubdir)
	trash := filepath.Join(colRoot, trashPrefix+name)
	os.RemoveAll(trash)
	if err := os.Rename(filepath.Join(colRoot, name), trash); err != nil {
		return err
	}
	return os.RemoveAll(trash)
}

// Close closes every collection (WALs, tag logs). The directories remain
// reopenable.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, c := range r.cols {
		if err := c.Handle.Close(); err != nil && first == nil {
			first = err
		}
		if err := c.Tags.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func readSpec(path string) (wire.CollectionSpec, error) {
	var spec wire.CollectionSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("collection: bad %s: %w", specFile, err)
	}
	return spec, nil
}

// writeSpec persists the spec with write-fsync-rename so a torn write
// can never commit a half spec.
func writeSpec(path string, spec wire.CollectionSpec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
