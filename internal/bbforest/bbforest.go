// Package bbforest implements the paper's integrated, disk-resident index
// (§6): one Bregman Ball tree per partitioned subspace, all sharing a
// single on-disk point layout. The layout follows the leaf order of a
// reference tree; thanks to PCCP the per-subspace clusterings are similar,
// so range queries in different subspaces touch overlapping page sets and
// the per-query distinct-page I/O drops — the effect Fig. 10 measures.
package bbforest

import (
	"errors"
	"fmt"
	"sync"

	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/disk"
	"brepartition/internal/partition"
	"brepartition/internal/stampset"
)

// Config collects construction parameters.
type Config struct {
	Tree bbtree.Config
	Disk disk.Config
	// ReferenceSubspace selects which subspace's tree defines the disk
	// layout; -1 picks subspace 0 (deterministic stand-in for the paper's
	// "randomly selected subspace").
	ReferenceSubspace int
	// Workers bounds total build concurrency: goroutines building whole
	// subspace trees plus intra-tree subtree forks, all drawing on one
	// shared limiter. 0 or 1 builds serially. The forest produced is
	// bit-identical at every worker count (bbtree's per-node split RNG).
	Workers int
}

// Forest is the BB-forest: M subspace BB-trees plus the shared page store.
// Every tree indexes the same ids, the store's; mutate them through Insert
// and Delete so the forest's count of live ids stays provable.
type Forest struct {
	Trees []*bbtree.Tree
	Parts [][]int
	Store *disk.Store

	// absent counts store ids known to sit in no tree's leaves (deleted
	// ones): Store.Len() − absent bounds the distinct ids a query can
	// collect from above, and is exact unless a Delete could not vouch for
	// some tree, so a query that has collected that many has them all.
	absent int
}

// FromTrees assembles a forest from already-built trees over store (the
// load path), counting the store ids no leaf holds.
func FromTrees(trees []*bbtree.Tree, parts [][]int, store *disk.Store) *Forest {
	held := make([]bool, store.Len())
	n := 0
	for _, tree := range trees {
		for i := range tree.Nodes {
			for _, id := range tree.Nodes[i].IDs {
				if !held[id] {
					held[id] = true
					n++
				}
			}
		}
	}
	return &Forest{Trees: trees, Parts: parts, Store: store, absent: store.Len() - n}
}

// Build validates the partitioning, builds the reference tree, lays points
// out on disk in its leaf order, and builds the remaining subspace trees.
func Build(div bregman.Divergence, points [][]float64, parts [][]int, cfg Config) (*Forest, error) {
	if len(points) == 0 {
		return nil, errors.New("bbforest: empty dataset")
	}
	d := len(points[0])
	if err := partition.Validate(parts, d); err != nil {
		return nil, fmt.Errorf("bbforest: %w", err)
	}
	ref := cfg.ReferenceSubspace
	if ref < 0 || ref >= len(parts) {
		ref = 0
	}

	// The calling goroutine is one worker; the limiter grants the extras.
	// It is shared by the whole forest build, so tree-level workers and
	// subtree forks together never exceed cfg.Workers goroutines.
	lim := bbtree.NewLimiter(cfg.Workers - 1)

	// The reference tree must finish first — its leaf order defines the
	// disk layout — so it gets the whole worker budget to itself.
	trees := make([]*bbtree.Tree, len(parts))
	treeCfg := cfg.Tree
	treeCfg.Seed = cfg.Tree.Seed + int64(ref)
	trees[ref] = bbtree.BuildWithLimiter(div, points, parts[ref], treeCfg, lim)

	layout := trees[ref].LeafOrder()
	store, err := disk.NewStore(points, layout, cfg.Disk)
	if err != nil {
		return nil, fmt.Errorf("bbforest: %w", err)
	}

	// Remaining trees: the caller builds subspace after subspace inline
	// while spawned workers (each blocking for a limiter slot before
	// touching work) drain the rest. Each tree's seed depends only on its
	// subspace index, so assignment order cannot affect the output.
	var wg sync.WaitGroup
	next := make(chan int)
	build := func(i int) {
		tc := cfg.Tree
		tc.Seed = cfg.Tree.Seed + int64(i)
		trees[i] = bbtree.BuildWithLimiter(div, points, parts[i], tc, lim)
	}
	if lim != nil {
		for w := 1; w < len(parts); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					build(i)
					lim.Release()
				}
			}()
		}
	}
	for i := range parts {
		if i == ref {
			continue
		}
		if lim != nil && lim.TryAcquire() {
			next <- i
			continue
		}
		build(i)
	}
	if lim != nil {
		close(next)
		wg.Wait()
	}
	return &Forest{Trees: trees, Parts: parts, Store: store}, nil
}

// M returns the number of subspaces.
func (f *Forest) M() int { return len(f.Trees) }

// Insert appends p to the store's tail and to every subspace tree and
// returns its id. Ids are never reused, so an id counted absent stays so.
func (f *Forest) Insert(p []float64) (int, error) {
	if err := f.Store.Append(p); err != nil {
		return 0, err
	}
	id := f.Store.Len() - 1
	for _, tree := range f.Trees {
		tree.Insert(id, p)
	}
	return id, nil
}

// Delete removes id from every subspace tree and reports whether any held
// it. The id is counted absent only when every tree either removed it or
// never indexed it; a tree whose descent missed a point it may still hold
// leaves the count short, which only disables the saturation exit.
func (f *Forest) Delete(id int) bool {
	removed, vouched := false, true
	for _, tree := range f.Trees {
		indexed := tree.SubPoint(id) != nil
		found := tree.Delete(id)
		removed = removed || found
		vouched = vouched && (found || !indexed)
	}
	if removed && vouched {
		f.absent++
	}
	return removed
}

// SearchScratch bundles every reusable buffer one candidate-union query
// needs — the geodesic projector, the explicit DFS stack, the epoch-stamped
// candidate dedup set, and the candidate accumulator — so a pooled scratch
// makes the whole filter phase allocation-free in steady state. The zero
// value is ready to use.
type SearchScratch struct {
	proj  bbtree.Projector
	stack []int
	seen  stampset.Set // ids already emitted for this query
	cands []int
}

// CandidateUnion performs the filter step of Algorithm 6: a range query
// with radius radii[i] in every subspace tree, charging the I/O of each
// visited leaf's points to sess and returning the de-duplicated candidate
// union (Theorem 3's C = C₁ ∪ … ∪ C_M at leaf granularity).
func (f *Forest) CandidateUnion(q []float64, radii []float64, sess *disk.Session) ([]int, bbtree.Stats) {
	var sc SearchScratch
	cands, st := f.CandidateUnionCtx(q, radii, sess, &sc)
	// The scratch dies with this call; copy the candidates out of it.
	out := make([]int, len(cands))
	copy(out, cands)
	return out, st
}

// CandidateUnionCtx is CandidateUnion with caller-pooled scratch: the
// returned candidate slice aliases sc's buffer and is valid only until the
// scratch's next query. A warm scratch performs the entire filter phase
// without allocating.
func (f *Forest) CandidateUnionCtx(q []float64, radii []float64, sess *disk.Session, sc *SearchScratch) ([]int, bbtree.Stats) {
	return f.CandidateUnionFilterCtx(q, radii, sess, sc, nil)
}

// CandidateUnionFilterCtx is CandidateUnionCtx with an id predicate pushed
// into leaf emission: ids keep rejects are dropped at the leaf, before
// prefetch or candidate accumulation, so the refinement phase of a
// filtered query never touches (or pages in) a non-matching point. Each id
// is tested at most once per query — the dedup stamp is set whether or not
// the predicate admits it. keep == nil admits everything.
//
// Once every live id has been stamped (counted before keep is asked, so a
// filter cannot fake it) the remaining trees could only repeat ids and are
// not walked.
func (f *Forest) CandidateUnionFilterCtx(q []float64, radii []float64, sess *disk.Session, sc *SearchScratch, keep func(id int) bool) ([]int, bbtree.Stats) {
	if len(radii) != len(f.Trees) {
		panic("bbforest: radii/subspace count mismatch")
	}
	var total bbtree.Stats
	sc.seen.Begin(f.Store.Len())
	sc.cands = sc.cands[:0]
	live, stamped := f.Store.Len()-f.absent, 0
	emit := func(node *bbtree.Node) {
		for _, id := range node.IDs {
			if !sc.seen.TryMark(id) {
				continue
			}
			stamped++
			if keep != nil && !keep(id) {
				continue
			}
			sess.Prefetch(id)
			sc.cands = append(sc.cands, id)
		}
	}
	for i, tree := range f.Trees {
		if stamped == live {
			break
		}
		total.Add(tree.RangeLeavesProj(q, radii[i], &sc.proj, &sc.stack, emit))
	}
	return sc.cands, total
}

// CandidatesPerSubspace runs the same filter but keeps each subspace's
// candidate set separate, used by the PCCP-overlap diagnostics and tests.
func (f *Forest) CandidatesPerSubspace(q []float64, radii []float64) [][]int {
	out := make([][]int, len(f.Trees))
	for i, tree := range f.Trees {
		var ids []int
		tree.RangeLeaves(q, radii[i], func(node *bbtree.Node) {
			ids = append(ids, node.IDs...)
		})
		out[i] = ids
	}
	return out
}
