package dag

import (
	"repro/internal/label"
)

// Builder constructs minimal (fully compressed) instances bottom-up by
// hash-consing: Add returns an existing vertex whenever one with the same
// label set and the same run-length-encoded child sequence already exists.
// This is the linear-time compression algorithm of Proposition 2.6 — the
// hash table of "nodes previously inserted into the compressed instance".
//
// Because children must exist before their parent is added, every instance
// produced by a Builder is acyclic by construction, and because Add
// canonicalises the edge list into RLE normal form, equal subtrees always
// map to the same vertex, so the finished instance is minimal with respect
// to the vertices added through it.
type Builder struct {
	inst    *Instance
	buckets map[uint64][]VertexID
}

// NewBuilder returns a builder producing an instance over schema. If schema
// is nil a fresh one is created.
func NewBuilder(schema *label.Schema) *Builder {
	if schema == nil {
		schema = label.NewSchema()
	}
	return &Builder{
		inst:    &Instance{Root: NilVertex, Schema: schema},
		buckets: make(map[uint64][]VertexID),
	}
}

// Schema returns the schema of the instance under construction.
func (b *Builder) Schema() *label.Schema { return b.inst.Schema }

// Add inserts a vertex with the given labels and ordered child sequence,
// returning a shared vertex if an identical one exists. children lists
// child vertices in document order *without* run-length encoding; Add
// merges consecutive duplicates itself. The children slice is not retained.
func (b *Builder) Add(labels label.Set, children []VertexID) VertexID {
	edges := make([]Edge, 0, len(children))
	for _, c := range children {
		if n := len(edges); n > 0 && edges[n-1].Child == c {
			edges[n-1].Count++
		} else {
			edges = append(edges, Edge{Child: c, Count: 1})
		}
	}
	return b.addEdges(labels, edges)
}

// AddEdges is like Add but takes an already run-length-encoded edge list.
// The list must be in RLE normal form (no consecutive equal children, all
// counts >= 1); the slice is not retained.
func (b *Builder) AddEdges(labels label.Set, edges []Edge) VertexID {
	cp := make([]Edge, len(edges))
	copy(cp, edges)
	return b.addEdges(labels, cp)
}

// addEdges takes ownership of edges.
func (b *Builder) addEdges(labels label.Set, edges []Edge) VertexID {
	labels = labels.Clone()
	h := hashVertex(labels, edges)
	for _, id := range b.buckets[h] {
		v := &b.inst.Verts[id]
		if v.Labels.Equal(labels) && edgesEqual(v.Edges, edges) {
			return id
		}
	}
	id := VertexID(len(b.inst.Verts))
	b.inst.Verts = append(b.inst.Verts, Vertex{Edges: edges, Labels: labels})
	b.buckets[h] = append(b.buckets[h], id)
	return id
}

// SetRoot declares the root vertex of the instance under construction.
func (b *Builder) SetRoot(id VertexID) { b.inst.Root = id }

// Instance finalises and returns the built instance. The builder must not
// be used afterwards. Vertices never reachable from the root are pruned so
// that |V| reflects the instance actually rooted at SetRoot's argument.
func (b *Builder) Instance() *Instance {
	in := b.inst
	b.inst = nil
	b.buckets = nil
	if in.Root == NilVertex {
		in.Verts = nil
		return in
	}
	return pruneUnreachable(in)
}

// pruneUnreachable drops vertices not reachable from the root, renumbering
// the rest. Hash-consed construction can leave orphans when intermediate
// subtrees are superseded.
func pruneUnreachable(in *Instance) *Instance {
	n := len(in.Verts)
	seen := make([]bool, n)
	stack := []VertexID{in.Root}
	seen[in.Root] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range in.Verts[v].Edges {
			if !seen[e.Child] {
				seen[e.Child] = true
				count++
				stack = append(stack, e.Child)
			}
		}
	}
	if count == n {
		return in
	}
	remap := make([]VertexID, n)
	verts := make([]Vertex, 0, count)
	for i := 0; i < n; i++ {
		if seen[i] {
			remap[i] = VertexID(len(verts))
			verts = append(verts, in.Verts[i])
		} else {
			remap[i] = NilVertex
		}
	}
	for i := range verts {
		for j := range verts[i].Edges {
			verts[i].Edges[j].Child = remap[verts[i].Edges[j].Child]
		}
	}
	return &Instance{Verts: verts, Root: remap[in.Root], Schema: in.Schema}
}

const fnvPrime = 1099511628211

func hashVertex(labels label.Set, edges []Edge) uint64 {
	h := labels.Hash()
	for _, e := range edges {
		h ^= uint64(uint32(e.Child))
		h *= fnvPrime
		h ^= uint64(e.Count)
		h *= fnvPrime
	}
	return h
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Compress returns the minimal instance M(in) equivalent to in
// (Proposition 2.5), by re-hash-consing bottom-up in topological order.
// Running Compress on an already-minimal instance returns an isomorphic
// instance.
func Compress(in *Instance) *Instance {
	if len(in.Verts) == 0 {
		return &Instance{Root: NilVertex, Schema: in.Schema.Clone()}
	}
	b := NewBuilder(in.Schema.Clone())
	remap := make([]VertexID, len(in.Verts))
	order := in.TopoOrder()
	// Children first: iterate the topological order in reverse.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		src := &in.Verts[v]
		// Re-normalise the RLE: merging may make consecutive runs equal.
		edges := make([]Edge, 0, len(src.Edges))
		for _, e := range src.Edges {
			c := remap[e.Child]
			if n := len(edges); n > 0 && edges[n-1].Child == c {
				edges[n-1].Count += e.Count
			} else {
				edges = append(edges, Edge{Child: c, Count: e.Count})
			}
		}
		remap[v] = b.addEdges(src.Labels, edges)
	}
	b.SetRoot(remap[in.Root])
	return b.Instance()
}

// Minimal reports whether in is already minimal — equality is the only
// bisimilarity relation on it (Section 2.2) and its edge list is in RLE
// normal form.
func Minimal(in *Instance) bool {
	out := Compress(in)
	return len(out.Verts) == len(in.Verts) && out.NumEdges() == in.NumEdges()
}
