package dag

import (
	"repro/internal/label"
)

// ResultLabelName is the relation name a materialized overlay result
// selection is registered under. It cannot collide with document
// relations: tags are interned as "tag:…" and string conditions as
// "str:…" (see internal/skeleton), and engine temporaries as "$g…".
const ResultLabelName = "$result"

// ResultView is a query result detached from its (pooled, released)
// overlay: the shared frozen base, the extension vertices the query's
// partial decompression appended (often none), and the selected vertex
// IDs. It supports the read operations a serving layer needs — counting
// and path enumeration — without ever copying the base, and can
// materialize a standalone Instance on demand for callers that want to
// walk, serialise or further query the result.
//
// A ResultView is immutable and safe for concurrent use.
type ResultView struct {
	f     *Frozen
	root  VertexID
	ext   []extVertex // extension vertices; labels read via origin
	sel   []VertexID  // selected vertex IDs, ascending
	count uint64      // tree nodes the selection represents
}

// SelectedDAG returns the number of selected graph vertices.
func (v *ResultView) SelectedDAG() int { return len(v.sel) }

// Selected returns the selected vertex IDs, ascending. Read-only.
func (v *ResultView) Selected() []VertexID { return v.sel }

// edges returns the child edges of id in the view's graph.
func (v *ResultView) edges(id VertexID) []Edge {
	nb := len(v.f.inst.Verts)
	if int(id) < nb {
		return v.f.inst.Verts[id].Edges
	}
	return v.ext[int(id)-nb].edges
}

// labels returns the base label set of id, through the origin for
// extension vertices.
func (v *ResultView) labels(id VertexID) label.Set {
	nb := len(v.f.inst.Verts)
	if int(id) < nb {
		return v.f.inst.Verts[id].Labels
	}
	return v.f.inst.Verts[v.ext[int(id)-nb].origin].Labels
}

// selBits builds a bitset of the selection over the view's ID space.
func (v *ResultView) selBits() Bitset {
	b := make(Bitset, bitsetWords(len(v.f.inst.Verts)+len(v.ext)))
	for _, id := range v.sel {
		b.Set(id)
	}
	return b
}

// Paths enumerates the tree addresses of up to max selected nodes in
// document order, straight off the view — the base is not cloned and no
// instance is materialized. The walk ends after max addresses or at the
// last selected node, whichever comes first: its cost follows the
// addresses returned and the subgraphs it tests on the way to them, not
// the document.
func (v *ResultView) Paths(max int) []string { return v.paths(max, v.edges) }

// paths is Paths over the given edge accessor (tests count its calls).
func (v *ResultView) paths(max int, edges func(VertexID) []Edge) []string {
	if len(v.sel) == 0 || max <= 0 || v.root == NilVertex {
		return nil
	}
	// The walk emits exactly min(max, count) addresses.
	limit := max
	if v.count < uint64(max) {
		limit = int(v.count)
	}
	sel := v.selBits()
	return selectedPathsFrom(make([]string, 0, limit), v.root, len(v.f.inst.Verts)+len(v.ext), edges, sel.Get, limit)
}

// Materialize builds a standalone Instance carrying the result: the live
// part of the view's graph, compacted and deep-copied, with the selection
// registered as the relation ResultLabelName (replacing any such relation
// the base already carried). The returned instance shares nothing mutable
// with the frozen base, so callers may freeze it for a follow-up query
// (a query context), render it as DOT or decompress it.
func (v *ResultView) Materialize() (*Instance, label.ID) {
	schema := v.f.inst.Schema.Clone()
	rid := schema.Intern(ResultLabelName)
	out := &Instance{Root: NilVertex, Schema: schema}
	if v.root == NilVertex {
		return out, rid
	}

	n := len(v.f.inst.Verts) + len(v.ext)
	remap := make([]VertexID, n)
	for i := range remap {
		remap[i] = NilVertex
	}
	// Discovery in DFS preorder assigns dense new IDs to live vertices.
	order := make([]VertexID, 0, len(v.f.inst.Verts))
	stack := []VertexID{v.root}
	remap[v.root] = 0
	order = append(order, v.root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range v.edges(id) {
			if remap[e.Child] == NilVertex {
				remap[e.Child] = VertexID(len(order))
				order = append(order, e.Child)
				stack = append(stack, e.Child)
			}
		}
	}

	sel := v.selBits()
	out.Verts = make([]Vertex, len(order))
	for newID, oldID := range order {
		src := v.edges(oldID)
		edges := make([]Edge, len(src))
		for i, e := range src {
			edges[i] = Edge{Child: remap[e.Child], Count: e.Count}
		}
		labels := v.labels(oldID).Clone()
		if sel.Get(oldID) {
			labels = labels.Set(rid)
		} else if labels.Has(rid) {
			// The base is itself a materialized result (a query context):
			// its selection is not this one.
			labels = labels.Without(rid)
		}
		out.Verts[newID] = Vertex{Edges: edges, Labels: labels}
	}
	out.Root = remap[v.root]
	return out, rid
}
