package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"brepartition/internal/bbforest"
	"brepartition/internal/bbtree"
	"brepartition/internal/bregman"
	"brepartition/internal/disk"
	"brepartition/internal/kernel"
	"brepartition/internal/transform"
)

// The index file format persists everything Algorithm 5 precomputes —
// partitioning, per-point tuples, and all BB-tree shapes — so a process
// restart skips the whole precomputation. Points themselves are stored in
// leaf order (the same layout the disk store uses).
//
// Layout (little-endian):
//
//	magic u32 | version u32 | divergence string | pageSize u32
//	n u32 | d u32 | m u32
//	parts: per subspace: len u32, dims u32...
//	points: n*d f64 (in id order)
//	tuples: n*m*(αx f64, γx f64)
//	trees: per subspace: node count u32, then per node:
//	       center (subDim f64), radius f64, left i32, right i32,
//	       idCount u32, ids u32...
//	crc32 of everything above
const (
	indexMagic   uint32 = 0xB4E51DE1
	indexVersion uint32 = 1
)

// ErrBadIndexFile reports a structurally invalid or corrupt index file.
var ErrBadIndexFile = errors.New("core: bad index file")

// WriteFile persists the built index to path.
func (ix *Index) WriteFile(path string) (err error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	crc := crc32.NewIEEE()
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)

	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		w.Write(b[:])
	}
	putI32 := func(v int32) { putU32(uint32(v)) }
	putF64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		w.Write(b[:])
	}
	putStr := func(s string) {
		putU32(uint32(len(s)))
		w.WriteString(s)
	}

	putU32(indexMagic)
	putU32(indexVersion)
	putStr(ix.Div.Name())
	putU32(uint32(ix.opts.Disk.PageSize))
	putU32(uint32(len(ix.Points)))
	putU32(uint32(ix.d))
	putU32(uint32(ix.M()))
	for _, dims := range ix.Parts {
		putU32(uint32(len(dims)))
		for _, j := range dims {
			putU32(uint32(j))
		}
	}
	for _, p := range ix.Points {
		for _, v := range p {
			putF64(v)
		}
	}
	for _, tu := range ix.Tuples {
		for _, t := range tu {
			putF64(t.Alpha)
			putF64(t.Gamma)
		}
	}
	for _, tree := range ix.Forest.Trees {
		putU32(uint32(len(tree.Nodes)))
		for ni := range tree.Nodes {
			node := &tree.Nodes[ni]
			for _, v := range node.Center {
				putF64(v)
			}
			putF64(node.Radius)
			putI32(int32(node.Left))
			putI32(int32(node.Right))
			putU32(uint32(len(node.IDs)))
			for _, id := range node.IDs {
				putU32(uint32(id))
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err = f.Write(tail[:])
	return err
}

// ReadFile loads an index persisted by WriteFile. The divergence is
// resolved from the registry by name; custom divergences can be supplied
// via ReadFileWith.
func ReadFile(path string) (*Index, error) {
	return ReadFileWith(path, nil)
}

// ReadFileWith loads an index, using resolve (when non-nil) to map the
// stored divergence name to an implementation.
func ReadFileWith(path string, resolve func(name string) (bregman.Divergence, error)) (*Index, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: truncated", ErrBadIndexFile)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadIndexFile)
	}
	r := &indexReader{buf: body}

	if r.u32() != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadIndexFile)
	}
	if v := r.u32(); v != indexVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadIndexFile, v)
	}
	divName := r.str()
	if resolve == nil {
		resolve = bregman.ByName
	}
	div, err := resolve(divName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	pageSize := int(r.u32())
	n := int(r.u32())
	d := int(r.u32())
	m := int(r.u32())
	if r.err != nil || n <= 0 || d <= 0 || m <= 0 || m > d || pageSize <= 0 {
		return nil, fmt.Errorf("%w: bad geometry", ErrBadIndexFile)
	}
	// The points and tuples sections alone need n*(d+2m)*8 bytes; reject
	// implausible geometry before allocating anything proportional to it.
	// Divide rather than multiply: n, d, m are attacker-controlled u32s and
	// the product can wrap uint64. perPoint itself cannot overflow
	// ((2^32 + 2·2^32)·8 < 2^64).
	perPoint := (uint64(d) + 2*uint64(m)) * 8
	if uint64(n) > uint64(len(body))/perPoint {
		return nil, fmt.Errorf("%w: geometry larger than file", ErrBadIndexFile)
	}

	parts := make([][]int, m)
	dimSeen := make([]bool, d)
	for i := range parts {
		cnt := int(r.u32())
		if cnt <= 0 || cnt > d {
			return nil, fmt.Errorf("%w: bad subspace size", ErrBadIndexFile)
		}
		dims := make([]int, cnt)
		for j := range dims {
			dj := int(r.u32())
			if dj < 0 || dj >= d || (r.err == nil && dimSeen[dj]) {
				return nil, fmt.Errorf("%w: bad subspace dimension", ErrBadIndexFile)
			}
			dimSeen[dj] = true
			dims[j] = dj
		}
		parts[i] = dims
	}
	// Rebuild the id-major coordinate and tuple arenas (the flat SoA layout
	// Build produces); Points/Tuples rows are views into them.
	arena := make([]float64, n*d)
	points := make([][]float64, n)
	for i := range points {
		off := i * d
		p := arena[off : off+d : off+d]
		for j := range p {
			p[j] = r.f64()
		}
		points[i] = p
	}
	tupleArena := make([]transform.PointTuple, n*m)
	tuples := make([][]transform.PointTuple, n)
	for i := range tuples {
		off := i * m
		tu := tupleArena[off : off+m : off+m]
		for s := range tu {
			tu[s] = transform.PointTuple{Alpha: r.f64(), Gamma: r.f64()}
		}
		tuples[i] = tu
	}
	trees := make([]*bbtree.Tree, m)
	for s := range trees {
		nodeCount := int(r.u32())
		if nodeCount < 0 || nodeCount > 4*n+1 {
			return nil, fmt.Errorf("%w: bad node count", ErrBadIndexFile)
		}
		subDim := len(parts[s])
		nodes := make([]bbtree.Node, nodeCount)
		for ni := range nodes {
			center := make([]float64, subDim)
			for j := range center {
				center[j] = r.f64()
			}
			radius := r.f64()
			left := int(int32(r.u32()))
			right := int(int32(r.u32()))
			// Children are appended after their parent during construction
			// (and Insert only ever appends a root), so a valid file has
			// parent < child < nodeCount; enforcing it bounds every later
			// traversal (no out-of-range links, no cycles in LeafOrder).
			if r.err == nil && left >= 0 != (right >= 0) {
				return nil, fmt.Errorf("%w: half-linked node", ErrBadIndexFile)
			}
			if left >= 0 && (left <= ni || left >= nodeCount || right <= ni || right >= nodeCount) {
				return nil, fmt.Errorf("%w: bad node links", ErrBadIndexFile)
			}
			idCount := int(r.u32())
			if idCount < 0 || idCount > n {
				return nil, fmt.Errorf("%w: bad leaf size", ErrBadIndexFile)
			}
			var ids []int
			if idCount > 0 {
				ids = make([]int, idCount)
				for j := range ids {
					id := int(r.u32())
					if id < 0 || id >= n {
						return nil, fmt.Errorf("%w: leaf id out of range", ErrBadIndexFile)
					}
					ids[j] = id
				}
			}
			nodes[ni] = bbtree.Node{Center: center, Radius: radius,
				Left: left, Right: right, IDs: ids}
		}
		trees[s] = bbtree.Rehydrate(div, points, parts[s], nodes)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, r.err)
	}

	// The disk layout follows the reference tree's leaf order; deleted
	// points are absent from the leaves, so park them at the tail to keep
	// the layout a permutation (their pages are simply never read).
	order := trees[0].LeafOrder()
	layout := make([]int, 0, n)
	present := make([]bool, n)
	for _, id := range order {
		if id >= 0 && id < n && !present[id] {
			present[id] = true
			layout = append(layout, id)
		}
	}
	for id := 0; id < n; id++ {
		if !present[id] {
			layout = append(layout, id)
		}
	}
	store, err := disk.NewStore(points, layout, disk.Config{PageSize: pageSize, IOPS: 50_000})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadIndexFile, err)
	}
	ix := &Index{
		Div:    div,
		Points: points,
		Parts:  parts,
		Tuples: tuples,
		Forest: bbforest.FromTrees(trees, parts, store),
		opts:   Options{Disk: disk.Config{PageSize: pageSize, IOPS: 50_000}},
		d:      d,
		kern:   kernel.For(div),
		built:  n,
	}
	return ix, nil
}

type indexReader struct {
	buf []byte
	off int
	err error
}

func (r *indexReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *indexReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *indexReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *indexReader) str() string {
	n := int(r.u32())
	if n < 0 || n > 1<<12 {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	b := r.take(n)
	return string(b)
}
