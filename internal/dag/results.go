package dag

import (
	"strconv"

	"repro/internal/label"
)

// SelectedPaths enumerates the edge-paths (tree-node addresses, 1-based
// child positions joined with '.') of the nodes selected by relation s, in
// document order, up to max paths. It is the "decode the query result"
// operation the paper describes for translating a selection on a partially
// decompressed instance back to the uncompressed tree — a single
// depth-first traversal that descends only into subtrees holding a
// selected vertex. Whether a subtree holds one is decided lazily, for the
// children the traversal reaches, and memoised per vertex, so the cost is
// the addresses emitted plus the subgraphs tested on the way to them;
// only a walk that runs to its end (fewer than max selected nodes) tests
// every subtree right of the last one. ResultView.Paths, which knows the
// selection's tree-node count, stops at the last selected node instead.
func SelectedPaths(in *Instance, s label.ID, max int) []string {
	if len(in.Verts) == 0 || max <= 0 {
		return nil
	}
	return selectedPathsFrom(nil, in.Root, len(in.Verts),
		func(v VertexID) []Edge { return in.Verts[v].Edges },
		func(v VertexID) bool { return in.Verts[v].Labels.Has(s) },
		max)
}

// selectedPathsFrom is the shared traversal behind SelectedPaths and
// ResultView.Paths: it walks the graph below root through the given edge
// accessor, in document order, and appends to out (empty; its capacity
// is a size hint) the addresses of the first limit selected nodes. n
// bounds the vertex ID space.
func selectedPathsFrom(out []string, root VertexID, n int, edges func(VertexID) []Edge, selected func(VertexID) bool, limit int) []string {
	w := bitsetWords(n)
	memo := make(Bitset, 2*w)
	pw := pathWalker{
		edges:    edges,
		selected: selected,
		known:    memo[:w],
		yes:      memo[w:],
		limit:    limit,
		out:      out,
	}
	pw.walk(root)
	return pw.out
}

// pathWalker is the state of one selectedPathsFrom traversal.
type pathWalker struct {
	edges    func(VertexID) []Edge
	selected func(VertexID) bool

	// known/yes memoise "the subtree holds a selected vertex": a vertex
	// is decided once known is set, and holds one iff yes is set too.
	known, yes Bitset
	stack      []holdsFrame

	limit int
	addr  []byte // the current address, "2.1.3"
	out   []string
}

// holdsFrame is a vertex on holds' explicit stack: its edges and the
// index of the next child to test.
type holdsFrame struct {
	v     VertexID
	edges []Edge
	next  int
}

// walk emits the addresses below v (whose address is pw.addr) in
// document order and reports false once limit addresses are out. The
// recursion is as deep as the tree.
func (pw *pathWalker) walk(v VertexID) bool {
	if pw.selected(v) {
		pw.out = append(pw.out, string(pw.addr))
		if len(pw.out) >= pw.limit {
			return false
		}
	}
	pos := 1
	for _, e := range pw.edges(v) {
		if !pw.holds(e.Child) {
			pos += int(e.Count)
			continue
		}
		for i := uint32(0); i < e.Count; i++ {
			mark := len(pw.addr)
			if mark > 0 {
				pw.addr = append(pw.addr, '.')
			}
			pw.addr = strconv.AppendInt(pw.addr, int64(pos), 10)
			ok := pw.walk(e.Child)
			pw.addr = pw.addr[:mark]
			if !ok {
				return false
			}
			pos++
		}
	}
	return true
}

// holds reports whether v's subtree (v included) holds a selected vertex.
// It searches depth first with an explicit stack, stopping at the first
// selected vertex it meets: every vertex on the stack then is an ancestor
// of it and holds one too. A vertex whose children all hold none is
// settled as holding none; children the search did not reach stay
// undecided until a later call needs them.
func (pw *pathWalker) holds(v VertexID) bool {
	if pw.known.Get(v) {
		return pw.yes.Get(v)
	}
	pw.stack = pw.stack[:0]
	for u := v; ; {
		// Enter u, which is undecided.
		if pw.selected(u) {
			pw.settleYes(u)
			return true
		}
		pw.stack = append(pw.stack, holdsFrame{v: u, edges: pw.edges(u)})
		// Move to the next undecided child below the top of the stack,
		// settling exhausted frames as holding none.
		for u = NilVertex; u == NilVertex; {
			top := &pw.stack[len(pw.stack)-1]
			if top.next == len(top.edges) {
				pw.known.Set(top.v)
				pw.stack = pw.stack[:len(pw.stack)-1]
				if len(pw.stack) == 0 {
					return false
				}
				continue
			}
			c := top.edges[top.next].Child
			top.next++
			switch {
			case !pw.known.Get(c):
				u = c
			case pw.yes.Get(c):
				pw.settleYes(c)
				return true
			}
		}
	}
}

// settleYes records that u and every vertex on the stack hold a selected
// vertex, and empties the stack.
func (pw *pathWalker) settleYes(u VertexID) {
	pw.known.Set(u)
	pw.yes.Set(u)
	for _, fr := range pw.stack {
		pw.known.Set(fr.v)
		pw.yes.Set(fr.v)
	}
	pw.stack = pw.stack[:0]
}
