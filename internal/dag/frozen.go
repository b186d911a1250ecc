package dag

import (
	"sync"

	"repro/internal/label"
)

// Frozen is an immutable, shareable view of an Instance — the base every
// in-flight query of a prepared document reads. Freezing promises that
// the instance (vertices, edges, labels, schema) will never be mutated
// again; in exchange the view caches the derived structures that every
// query would otherwise recompute or re-clone:
//
//   - the topological order (upward axes, path counts),
//   - the run-length-encoded edge count (per-result size reporting),
//   - root-to-vertex path counts (tree-node result counting),
//   - one dense Bitset column per queried relation (OpLabel leaves).
//
// All methods are safe for concurrent use: order and the edge count are
// computed at freeze time, path counts once on demand, and label columns
// lazily under a lock. Queries write nothing here — their state lives in
// per-query Overlays.
type Frozen struct {
	inst  *Instance
	order []VertexID // topological order, parents before children
	edges int        // cached NumEdges

	mu         sync.RWMutex
	pathCounts []uint64
	labelCols  map[label.ID]Bitset
	treeSize   uint64
	hasTree    bool
}

// Freeze wraps in as an immutable base. The caller must not mutate in (or
// its schema) afterwards; run queries against it with engine.RunFrozen.
func Freeze(in *Instance) *Frozen {
	return &Frozen{
		inst:      in,
		order:     in.TopoOrder(),
		edges:     in.NumEdges(),
		labelCols: make(map[label.ID]Bitset),
	}
}

// Instance returns the underlying instance. It is shared: callers must
// treat it as read-only (Clone before mutating).
func (f *Frozen) Instance() *Instance { return f.inst }

// NumVertices returns |V| of the base.
func (f *Frozen) NumVertices() int { return len(f.inst.Verts) }

// NumEdges returns the cached RLE edge count of the base.
func (f *Frozen) NumEdges() int { return f.edges }

// Order returns the cached topological order (parents before children).
// The slice is shared — callers must not modify it.
func (f *Frozen) Order() []VertexID { return f.order }

// PathCounts returns the cached root-to-vertex path counts (|Π(v)|,
// saturating), computing them on first use. Shared; read-only.
func (f *Frozen) PathCounts() []uint64 {
	f.mu.RLock()
	pc := f.pathCounts
	f.mu.RUnlock()
	if pc != nil {
		return pc
	}
	pc = f.inst.PathCounts()
	f.mu.Lock()
	if f.pathCounts == nil {
		f.pathCounts = pc
	} else {
		pc = f.pathCounts // a concurrent builder won; both are identical
	}
	f.mu.Unlock()
	return pc
}

// TreeSize returns the cached number of nodes of the uncompressed tree
// T(base), computing it on first use. Per-query reporting (TreeVertices)
// reads this instead of re-deriving it from the instance every time.
func (f *Frozen) TreeSize() uint64 {
	f.mu.RLock()
	ts, ok := f.treeSize, f.hasTree
	f.mu.RUnlock()
	if ok {
		return ts
	}
	ts = f.inst.TreeSize()
	f.mu.Lock()
	f.treeSize, f.hasTree = ts, true
	f.mu.Unlock()
	return ts
}

// LabelCol returns the dense selection column of relation s over the base
// vertices, building and caching it on first use. Shared; read-only —
// overlay evaluation copies it into a per-query column before any
// operator runs.
func (f *Frozen) LabelCol(s label.ID) Bitset {
	f.mu.RLock()
	col, ok := f.labelCols[s]
	f.mu.RUnlock()
	if ok {
		return col
	}
	col = make(Bitset, bitsetWords(len(f.inst.Verts)))
	for i := range f.inst.Verts {
		if f.inst.Verts[i].Labels.Has(s) {
			col.Set(VertexID(i))
		}
	}
	f.mu.Lock()
	if existing, ok := f.labelCols[s]; ok {
		col = existing // a concurrent builder won; both are identical
	} else {
		f.labelCols[s] = col
	}
	f.mu.Unlock()
	return col
}

// AuxBytes estimates the memory the frozen view holds beyond the instance
// itself — the cached order, path counts and label columns — for cache
// accounting (internal/store charges it against its byte budget).
func (f *Frozen) AuxBytes() int64 {
	b := int64(len(f.order)) * 4 // []VertexID
	f.mu.RLock()
	b += int64(len(f.labelCols)) * int64(bitsetWords(len(f.inst.Verts))) * 8
	b += int64(len(f.pathCounts)) * 8
	f.mu.RUnlock()
	return b
}
