package dag

import (
	"slices"
	"testing"
)

// TestResultViewPathsWorkFollowsAnswer pins that address decoding is
// output-sensitive: with one selected node, the root's first child, in an
// instance of more than 10k vertices, ResultView.Paths reads the edge
// lists on the way to that node and stops — it neither sorts nor scans
// the rest of the graph to decide which subtrees hold a selection.
func TestResultViewPathsWorkFollowsAnswer(t *testing.T) {
	const n = 12000
	// Vertex 0 is the root with children 1 (a leaf, the selection) and
	// 2; vertices 2..n-1 form a tree of fan-out 4 below vertex 2.
	in := New()
	in.Verts = make([]Vertex, n)
	in.Root = 0
	in.Verts[0].Edges = []Edge{{Child: 1, Count: 1}, {Child: 2, Count: 1}}
	for c := 3; c < n; c++ {
		p := 2 + (c-3)/4
		in.Verts[p].Edges = append(in.Verts[p].Edges, Edge{Child: VertexID(c), Count: 1})
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}

	ov := AcquireOverlay(Freeze(in))
	defer ov.Release()
	ov.EnsureCols(1)
	ov.Col(0).Set(1)
	view := ov.Detach(0, ov.SelectedTree(0))

	calls := 0
	got := view.paths(100, func(v VertexID) []Edge {
		calls++
		return view.edges(v)
	})
	if !slices.Equal(got, []string{"1"}) {
		t.Fatalf("paths = %v, want [1]", got)
	}
	// The root's edge list is the only one the walk needs.
	const depth = 1
	if calls > 2*depth {
		t.Fatalf("Paths(100) read %d edge lists for a selection at depth %d of a %d-vertex instance", calls, depth, n)
	}
}
