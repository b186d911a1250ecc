package dag

import (
	"repro/internal/label"
)

// Equivalent implements Definition 2.1: two instances are equivalent when
// they have the same set of edge-paths from the root (Π(V)) and, for every
// relation S in the schema, the same set of edge-paths ending in S (Π(S)).
// Relations are matched by name, so the two instances may use different
// label ID assignments.
//
// The check is by canonicalisation: both instances are re-labelled into a
// joint schema and hash-consed into one shared builder; by the uniqueness
// of the minimal instance (Proposition 2.5) the roots coincide if and only
// if the instances are equivalent.
func Equivalent(a, b *Instance) bool {
	if len(a.Verts) == 0 || len(b.Verts) == 0 {
		return len(a.Verts) == len(b.Verts)
	}
	bld := NewBuilder(nil)
	return canonicalise(bld, a) == canonicalise(bld, b)
}

// canonicalise hash-conses in into bld, translating label IDs by name into
// bld's schema, and returns the canonical vertex for in's root.
func canonicalise(bld *Builder, in *Instance) VertexID {
	translate := make([]label.ID, in.Schema.Len())
	for i := 0; i < in.Schema.Len(); i++ {
		translate[i] = bld.Schema().Intern(in.Schema.Name(label.ID(i)))
	}
	remap := make([]VertexID, len(in.Verts))
	order := in.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		src := &in.Verts[v]
		var labels label.Set
		for _, id := range src.Labels.Members() {
			labels = labels.Set(translate[id])
		}
		edges := make([]Edge, 0, len(src.Edges))
		for _, e := range src.Edges {
			c := remap[e.Child]
			if n := len(edges); n > 0 && edges[n-1].Child == c {
				edges[n-1].Count += e.Count
			} else {
				edges = append(edges, Edge{Child: c, Count: e.Count})
			}
		}
		remap[v] = bld.addEdges(labels, edges)
	}
	return remap[in.Root]
}
