package dag

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/label"
)

// Overlay is the per-query write layer of the copy-on-write evaluation
// mode: all in-flight queries of a document share one immutable Frozen
// base, and each query writes only here. An overlay holds
//
//   - one Bitset column per program register (a selection, kept out of
//     the shared schema and the per-vertex label sets), and
//   - an append-only vertex extension for the partial decompression the
//     downward and sibling axes perform: a rewrite copies only vertices
//     whose edges or selection variants must diverge from the base, and
//     untouched base vertices keep their IDs — so selections written
//     before a rewrite stay valid for the identity part for free.
//
// Vertex IDs < the base size address base vertices; IDs beyond it address
// extension vertices, whose labels are read through their base origin
// (extension copies never carry label sets of their own). After a rewrite
// some vertices may be dead (unreachable from the new root); the overlay
// tracks the live set and a topological order of it, and every operator
// maintains the invariant that columns only ever contain live bits.
//
// Overlays are pooled: AcquireOverlay reuses scratch buffers from earlier
// queries, and Release returns them. What a result can reference — the
// extension vertices and their edge arenas — is owned by the query and
// never pooled: Detach hands it to the result view, and Release drops it,
// so steady-state queries allocate proportionally to their result and to
// what they split, not to the document.
type Overlay struct {
	f    *Frozen
	base *Instance
	nb   int // len(base.Verts)
	root VertexID

	ext []extVertex // appended copies, per query

	cols   []Bitset
	ncols  int // columns active for the current program (cols may retain more from pooled reuse)
	nwords int // words per column at the current vertex count

	// Live-graph bookkeeping; order == nil means no rewrite has happened
	// and the base graph (all of it live) is current. The order alternates
	// between two retained buffers (bufA, bufB; usingA names the current
	// one) so a rewrite can read the old order while building the new.
	order     []VertexID
	bufA      []VertexID
	bufB      []VertexID
	usingA    bool
	live      Bitset
	liveVerts int
	liveEdges int

	// Pooled scratch buffers for rewrites and counting.
	repF, repT   []VertexID
	needF, needT Bitset
	counts       []uint64
	rw           Rewrite // the rewrite in progress; its buffers are reused
}

// extVertex is an extension vertex: a copy of the base vertex origin, whose
// labels it reads, with an edge list of its own.
type extVertex struct {
	edges  []Edge
	origin VertexID
}

var overlayPool = sync.Pool{New: func() any { return new(Overlay) }}

// overlayLive counts overlays acquired and not yet released. It exists
// for leak detection: a query that errors or is cancelled must still
// release its overlay, so after any burst of queries drains, the count
// returns to its pre-burst value (robustness tests assert this).
var overlayLive atomic.Int64

// OverlaysLive reports the number of overlays currently acquired.
func OverlaysLive() int64 { return overlayLive.Load() }

// AcquireOverlay returns a pooled overlay positioned over f, with no
// columns allocated yet (EnsureCols sizes them).
func AcquireOverlay(f *Frozen) *Overlay {
	o := overlayPool.Get().(*Overlay)
	overlayLive.Add(1)
	o.f = f
	o.base = f.inst
	o.nb = len(f.inst.Verts)
	o.root = f.inst.Root
	o.nwords = bitsetWords(o.nb)
	o.ncols = 0
	o.order = nil
	o.liveVerts = o.nb
	o.liveEdges = f.edges
	return o
}

// Release returns the overlay's scratch buffers to the pool. The overlay
// must not be used afterwards; call Detach first to keep the result.
func (o *Overlay) Release() {
	o.f = nil
	o.base = nil
	// The extension belongs to this query (or to the view it was detached
	// into): keeping it in the pool would pin its edge arenas.
	o.ext = nil
	overlayLive.Add(-1)
	overlayPool.Put(o)
}

// Frozen returns the shared base view.
func (o *Overlay) Frozen() *Frozen { return o.f }

// N returns the current number of vertex IDs (base + extension, including
// any dead ones).
func (o *Overlay) N() int { return o.nb + len(o.ext) }

// Root returns the current root vertex.
func (o *Overlay) Root() VertexID { return o.root }

// Rewritten reports whether a decompressing axis has rewritten the graph.
func (o *Overlay) Rewritten() bool { return o.order != nil }

// Edges returns the child edges of v (base or extension). Read-only.
func (o *Overlay) Edges(v VertexID) []Edge {
	if int(v) < o.nb {
		return o.base.Verts[v].Edges
	}
	return o.ext[int(v)-o.nb].edges
}

// Order returns a topological order (parents before children) of the live
// graph: the frozen base order before any rewrite, the overlay-maintained
// order after. Read-only.
func (o *Overlay) Order() []VertexID {
	if o.order == nil {
		return o.f.order
	}
	return o.order
}

// LiveCounts returns the number of live vertices and live RLE edges.
func (o *Overlay) LiveCounts() (verts, edges int) { return o.liveVerts, o.liveEdges }

// EnsureCols makes n columns active, each sized to the current vertex
// count and zeroed. Pooled columns beyond n stay allocated for future
// reuse but are ignored by every operator and rewrite.
func (o *Overlay) EnsureCols(n int) {
	for len(o.cols) < n {
		o.cols = append(o.cols, nil)
	}
	o.ncols = n
	for i := 0; i < n; i++ {
		o.cols[i] = growWords(o.cols[i], o.nwords)
		o.cols[i].Zero()
	}
}

// Col returns column i.
func (o *Overlay) Col(i int) Bitset { return o.cols[i] }

// Retire marks column i as read by no later operator, so rewrites stop
// extending and masking it. It must not be read again in this query.
func (o *Overlay) Retire(i int) { o.cols[i] = o.cols[i][:0] }

// FillLive sets dst to exactly the live vertex set.
func (o *Overlay) FillLive(dst Bitset) {
	if o.order != nil {
		copy(dst, o.live[:len(dst)])
		return
	}
	// Base graph: all nb vertices live.
	full := o.nb >> 6
	for i := 0; i < full; i++ {
		dst[i] = ^uint64(0)
	}
	if rem := uint(o.nb) & 63; rem != 0 {
		dst[full] = (1 << rem) - 1
	}
}

// IsLive reports whether col holds exactly the live vertex set: a word
// compare, O(|V|/64), that stops at the first difference.
func (o *Overlay) IsLive(col Bitset) bool {
	if o.order != nil {
		for i, w := range col {
			if w != o.live[i] {
				return false
			}
		}
		return true
	}
	full := o.nb >> 6
	for i := 0; i < full; i++ {
		if col[i] != ^uint64(0) {
			return false
		}
	}
	if rem := uint(o.nb) & 63; rem != 0 {
		return col[full] == (1<<rem)-1
	}
	return true
}

// FillLabel sets dst to the live vertices carrying relation id: the
// frozen base column masked by the live set, plus every live extension
// vertex whose origin is in that column. No label set is read.
func (o *Overlay) FillLabel(dst Bitset, id label.ID) {
	col := o.f.LabelCol(id)
	if o.order == nil {
		copy(dst, col)
		return
	}
	for i, w := range col {
		dst[i] = w & o.live[i]
	}
	for i := len(col); i < len(dst); i++ {
		dst[i] = 0
	}
	for k, x := range o.ext {
		if v := VertexID(o.nb + k); o.live.Get(v) && col.Get(x.origin) {
			dst.Set(v)
		}
	}
}

// growWords returns b resized to n words, reallocating only when the
// capacity is insufficient. Newly exposed words are NOT cleared.
func growWords(b Bitset, n int) Bitset {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make(Bitset, n, n+n/2)
	copy(nb, b)
	return nb
}

func growIDs(s []VertexID, n int) []VertexID {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]VertexID, n, n+n/2)
	copy(ns, s)
	return ns
}

// RepScratch returns the two (vertex → representative) scratch tables for
// a rewrite, sized to the current vertex count and reset to NilVertex.
func (o *Overlay) RepScratch() (repF, repT []VertexID) {
	n := o.N()
	o.repF = growIDs(o.repF, n)
	o.repT = growIDs(o.repT, n)
	for i := 0; i < n; i++ {
		o.repF[i] = NilVertex
		o.repT[i] = NilVertex
	}
	return o.repF, o.repT
}

// NeedScratch returns the two need-variant scratch columns for a rewrite,
// sized to the current vertex count and zeroed.
func (o *Overlay) NeedScratch() (needF, needT Bitset) {
	w := bitsetWords(o.N())
	o.needF = growWords(o.needF, w)
	o.needT = growWords(o.needT, w)
	o.needF.Zero()
	o.needT.Zero()
	return o.needF, o.needT
}

// Rewrite is one decompressing-axis rewrite in progress. Append and
// AppendShared add extension vertices; Finish installs them with the new
// root, extends every column to the new vertices (inheriting each new
// vertex's pre-rewrite bits) and recomputes the live set and topological
// order.
//
// New edge lists are staged in a buffer the overlay reuses across
// queries; Finish copies them into one exact-size edge arena per rewrite,
// which belongs to the query and, after Detach, to its result view.
type Rewrite struct {
	o      *Overlay
	oldN   int
	added  []addedVertex // the new vertices, in ID order
	staged []Edge        // their new edge lists, back to back
}

// addedVertex is one vertex a rewrite appends: a copy of the pre-rewrite
// vertex pre whose edges are staged[off:off+n], or, when src is not
// NilVertex, the edge list of vertex src.
type addedVertex struct {
	pre, src VertexID
	off, n   int
}

// BeginRewrite starts a rewrite.
func (o *Overlay) BeginRewrite() *Rewrite {
	o.rw = Rewrite{o: o, oldN: o.N(), added: o.rw.added[:0], staged: o.rw.staged[:0]}
	return &o.rw
}

// Plan returns an empty buffer for building the edge list of the next
// vertex to Append. It is the unused tail of the staging buffer, so a
// plan that fits is staged in place.
func (r *Rewrite) Plan() []Edge { return r.staged[len(r.staged):] }

// Append adds an extension vertex copying pre (a pre-rewrite vertex ID)
// with the given edge list, and returns its ID. edges is copied (usually
// onto itself, when built in Plan's buffer); the caller may reuse it.
func (r *Rewrite) Append(pre VertexID, edges []Edge) VertexID {
	off := len(r.staged)
	r.staged = append(r.staged, edges...)
	return r.add(addedVertex{pre: pre, src: NilVertex, off: off, n: len(edges)})
}

// AppendShared adds an extension vertex copying pre whose edge list is
// that of src — pre itself, or a vertex appended earlier in this rewrite
// — and returns its ID. The list is shared, not copied.
func (r *Rewrite) AppendShared(pre, src VertexID) VertexID {
	return r.add(addedVertex{pre: pre, src: src})
}

func (r *Rewrite) add(a addedVertex) VertexID {
	r.added = append(r.added, a)
	return VertexID(r.oldN + len(r.added) - 1)
}

// Finish completes the rewrite: newRoot becomes the current root, all
// columns grow to the new vertex count with each new vertex inheriting
// its pre-rewrite source's bits, the live set, topological order and
// live size counters are rebuilt, and every column is masked down to the
// new live set (a split vertex's abandoned identity must not keep stale
// selection bits). A rewrite that appended nothing left the graph
// untouched and costs nothing.
//
// The new live graph is derived from the caller's need/rep scratch state
// (NeedScratch, RepScratch) rather than re-traversed: the live vertices
// after a rewrite are exactly the representatives of the requested
// (vertex, variant) pairs, and replacing each old-order entry by its
// requested representatives preserves topological order (a
// representative's edges all point to representatives of the old
// vertex's children, which sit earlier only if the old child did).
// liveEdges is the RLE edge count of the new live graph, accumulated by
// the caller as it resolves representatives.
func (r *Rewrite) Finish(newRoot VertexID, liveEdges int) {
	o := r.o
	if len(r.added) == 0 {
		// Every representative kept its identity: the graph, root, live
		// set and columns are all unchanged.
		return
	}
	oldOrder := o.Order()
	o.root = newRoot

	// Install the new vertices. The staged edge lists move into one
	// exact-size arena, which a detached view holds, so it carries no
	// slack; the extension at least doubles when it grows, so a query's
	// rewrites copy it O(1) times in all.
	arena := make([]Edge, len(r.staged))
	copy(arena, r.staged)
	ext := o.ext
	if need := len(ext) + len(r.added); need > cap(ext) {
		ext = make([]extVertex, len(ext), max(need, 2*cap(ext)))
		copy(ext, o.ext)
	}
	for _, a := range r.added {
		x := extVertex{origin: a.pre}
		if int(a.pre) >= o.nb {
			x.origin = ext[int(a.pre)-o.nb].origin
		}
		switch {
		case a.src == NilVertex:
			x.edges = arena[a.off : a.off+a.n : a.off+a.n]
		case int(a.src) < o.nb:
			x.edges = o.base.Verts[a.src].Edges
		default:
			x.edges = ext[int(a.src)-o.nb].edges
		}
		ext = append(ext, x)
	}
	o.ext = ext
	n := o.N()
	o.nwords = bitsetWords(n)

	// Extend every active column: new vertices inherit their source's
	// bits, so registers written before this rewrite stay valid on the
	// new graph.
	for ci := 0; ci < o.ncols; ci++ {
		if len(o.cols[ci]) == 0 {
			continue // retired
		}
		col := growWords(o.cols[ci], o.nwords)
		// Clear the words beyond the old length (growWords does not).
		for w := bitsetWords(r.oldN); w < o.nwords; w++ {
			col[w] = 0
		}
		// The word holding oldN..: clear bits >= oldN before inheriting.
		if rem := uint(r.oldN) & 63; rem != 0 {
			col[r.oldN>>6] &= (1 << rem) - 1
		}
		for k, a := range r.added {
			if col.Get(a.pre) {
				col.Set(VertexID(r.oldN + k))
			}
		}
		o.cols[ci] = col
	}

	// New order: each old live vertex contributes its requested
	// representatives, in old (topological) order. Built into the buffer
	// not currently backing the old order, since the two may alias.
	intoA := o.order == nil || !o.usingA
	target := o.bufB
	if intoA {
		target = o.bufA
	}
	newLive := o.needF.Count() + o.needT.Count()
	target = growIDs(target, newLive)[:0]
	for _, v := range oldOrder {
		if o.needF.Get(v) {
			target = append(target, o.repF[v])
		}
		if o.needT.Get(v) {
			target = append(target, o.repT[v])
		}
	}
	if intoA {
		o.bufA = target
	} else {
		o.bufB = target
	}
	o.usingA = intoA
	o.order = target
	o.liveVerts = len(target)
	o.liveEdges = liveEdges

	o.live = growWords(o.live, o.nwords)
	o.live.Zero()
	for _, v := range target {
		o.live.Set(v)
	}

	// Maintain the columns-hold-only-live-bits invariant: vertices
	// replaced by copies (or orphaned by the rewrite) are dead now.
	for _, col := range o.cols[:o.ncols] {
		for i := range col {
			col[i] &= o.live[i]
		}
	}
}

// CountCol returns the number of live vertices selected by column reg.
// (Columns never contain dead bits, so this is a plain popcount.)
func (o *Overlay) CountCol(reg int) int { return o.cols[reg].Count() }

// SelectedTree returns the number of tree nodes the selection in column
// reg represents: the multiplicity-weighted count over the current
// (possibly partially decompressed) graph. Before any rewrite this uses
// the frozen base's cached path counts; after a rewrite it recomputes
// counts over the live graph into pooled scratch.
func (o *Overlay) SelectedTree(reg int) uint64 {
	col := o.cols[reg]
	var total uint64
	if o.order == nil {
		pc := o.f.PathCounts()
		ForEachBit(col, func(v VertexID) {
			total = satAdd(total, pc[v])
		})
		return total
	}
	n := o.N()
	o.counts = growUint64(o.counts, n)
	for i := 0; i < n; i++ {
		o.counts[i] = 0
	}
	if o.liveVerts == 0 {
		return 0
	}
	o.counts[o.root] = 1
	for _, v := range o.order {
		c := o.counts[v]
		if c == 0 {
			continue
		}
		for _, e := range o.Edges(v) {
			o.counts[e.Child] = satAdd(o.counts[e.Child], satMul(c, uint64(e.Count)))
		}
	}
	ForEachBit(col, func(v VertexID) {
		total = satAdd(total, o.counts[v])
	})
	return total
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n, n+n/2)
}

// ForEachBit calls fn for every set bit, ascending.
func ForEachBit(b Bitset, fn func(VertexID)) {
	for w, word := range b {
		for word != 0 {
			fn(VertexID(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// Detach moves the result selection in column reg out of the pooled
// overlay into a standalone ResultView: the selected vertex IDs (an
// O(result) slice) plus the query's extension vertices and edge arenas,
// which the view takes over. count is the number of tree nodes the
// selection represents (SelectedTree); the view's Paths stops after that
// many addresses. The overlay remains usable until Release.
func (o *Overlay) Detach(reg int, count uint64) *ResultView {
	col := o.cols[reg]
	sel := make([]VertexID, 0, col.Count())
	ForEachBit(col, func(v VertexID) { sel = append(sel, v) })
	v := &ResultView{
		f:     o.f,
		root:  o.root,
		ext:   o.ext,
		sel:   sel,
		count: count,
	}
	o.ext = nil
	return v
}
