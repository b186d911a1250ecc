package dag_test

import (
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/skeleton"
)

func TestFrozenCaches(t *testing.T) {
	in := dagtest.CompressedFromTerm("bib(book(title,author,author),paper(title,author),paper(title,author))")
	f := dag.Freeze(in)

	if f.NumVertices() != in.NumVertices() || f.NumEdges() != in.NumEdges() {
		t.Fatalf("frozen sizes %d/%d, instance %d/%d",
			f.NumVertices(), f.NumEdges(), in.NumVertices(), in.NumEdges())
	}
	if got, want := f.TreeSize(), in.TreeSize(); got != want {
		t.Fatalf("frozen tree size %d, instance %d", got, want)
	}
	if !reflect.DeepEqual(f.PathCounts(), in.PathCounts()) {
		t.Fatal("frozen path counts diverge from instance")
	}
	if !reflect.DeepEqual(f.Order(), in.TopoOrder()) {
		t.Fatal("frozen order diverges from instance")
	}

	author := in.Schema.Lookup(skeleton.TagLabel("author"))
	col := f.LabelCol(author)
	var got []dag.VertexID
	dag.ForEachBit(col, func(v dag.VertexID) { got = append(got, v) })
	if want := in.Select(author); !reflect.DeepEqual(got, want) {
		t.Fatalf("label column selects %v, instance %v", got, want)
	}
	if f.AuxBytes() <= 0 {
		t.Fatal("aux accounting reports nothing for warmed caches")
	}
}

func TestBitset(t *testing.T) {
	b := make(dag.Bitset, 3)
	ids := []dag.VertexID{0, 1, 63, 64, 127, 130}
	for _, id := range ids {
		b.Set(id)
	}
	if b.Count() != len(ids) {
		t.Fatalf("count %d, want %d", b.Count(), len(ids))
	}
	var got []dag.VertexID
	dag.ForEachBit(b, func(v dag.VertexID) { got = append(got, v) })
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("iterated %v, want %v", got, ids)
	}
	if b.Get(2) || !b.Get(64) {
		t.Fatal("membership probes wrong")
	}
	b.Zero()
	if b.Count() != 0 {
		t.Fatal("zeroed bitset not empty")
	}
}

// TestOverlayColumnsAcrossReuse checks that a pooled overlay starts clean
// after serving a query that rewrote the graph and detached a result.
func TestOverlayColumnsAcrossReuse(t *testing.T) {
	in := dagtest.CompressedFromTerm("r(a(c,c,c),b(c,c,c))")
	f := dag.Freeze(in)

	for round := 0; round < 3; round++ {
		ov := dag.AcquireOverlay(f)
		ov.EnsureCols(2)
		if ov.N() != in.NumVertices() || ov.Rewritten() {
			t.Fatalf("round %d: overlay not reset: n=%d rewritten=%v", round, ov.N(), ov.Rewritten())
		}
		for i := 0; i < 2; i++ {
			if ov.Col(i).Count() != 0 {
				t.Fatalf("round %d: column %d dirty after acquire", round, i)
			}
		}
		verts, edges := ov.LiveCounts()
		if verts != in.NumVertices() || edges != in.NumEdges() {
			t.Fatalf("round %d: live counts %d/%d", round, verts, edges)
		}
		ov.Col(0).Set(ov.Root())
		view := ov.Detach(0, ov.SelectedTree(0))
		if view.SelectedDAG() != 1 {
			t.Fatalf("round %d: detached selection %d", round, view.SelectedDAG())
		}
		if paths := view.Paths(10); len(paths) != 1 || paths[0] != "" {
			t.Fatalf("round %d: root paths %v", round, paths)
		}
		mat, lbl := view.Materialize()
		if err := mat.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if mat.CountSelected(lbl) != 1 {
			t.Fatalf("round %d: materialized selection %d", round, mat.CountSelected(lbl))
		}
		ov.Release()
	}
}
