package algebra_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/label"
	"repro/internal/skeleton"
)

// Overlay columns used by the single-axis tests: the source selection,
// the result, and the two scratch columns the composed axes clobber.
const (
	colSrc = iota
	colDst
	colScratchA
	colScratchB
	numCols
)

// acquire returns an overlay over the frozen in with n zeroed columns. The
// caller releases it.
func acquire(in *dag.Instance, n int) *dag.Overlay {
	ov := dag.AcquireOverlay(dag.Freeze(in))
	ov.EnsureCols(n)
	return ov
}

// outcome is one operator's result: the selection in column col and the
// live instance it sits on.
type outcome struct {
	tree         uint64 // tree nodes selected
	dag          int    // DAG vertices selected
	verts, edges int    // live instance size
	rewritten    bool   // a decompressing rewrite happened
	inst         *dag.Instance
	lbl          label.ID
}

// finish reads column col's outcome, then detaches and materializes it,
// failing the test if the result instance breaks the DAG invariants. The
// overlay must not be evaluated further afterwards.
func finish(t *testing.T, ov *dag.Overlay, col int) outcome {
	t.Helper()
	o := outcome{tree: ov.SelectedTree(col), dag: ov.CountCol(col), rewritten: ov.Rewritten()}
	o.verts, o.edges = ov.LiveCounts()
	o.inst, o.lbl = ov.Detach(col, o.tree).Materialize()
	if err := o.inst.Validate(); err != nil {
		t.Fatalf("result instance invalid: %v\n%s", err, o.inst)
	}
	return o
}

// applyTag computes axis(tag) on in.
func applyTag(t *testing.T, in *dag.Instance, tag string, axis algebra.Axis) outcome {
	t.Helper()
	ov := acquire(in, numCols)
	defer ov.Release()
	if in.Schema.Lookup(skeleton.TagLabel(tag)) == label.Invalid {
		t.Fatalf("tag %q not in schema", tag)
	}
	algebra.OvLabel(ov, skeleton.TagLabel(tag), colSrc)
	algebra.OvApplyAxis(ov, axis, colSrc, colDst, colScratchA, colScratchB)
	return finish(t, ov, colDst)
}

// treeCount applies the axis on a compressed instance and returns how many
// tree nodes the new selection covers.
func treeCount(t *testing.T, term, tag string, axis algebra.Axis) uint64 {
	t.Helper()
	return applyTag(t, dagtest.CompressedFromTerm(term), tag, axis).tree
}

func TestChildAxis(t *testing.T) {
	// children of the two 'b' nodes: c,c,d and c.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "b", algebra.Child); got != 4 {
		t.Fatalf("child count = %d, want 4", got)
	}
}

func TestParentAxis(t *testing.T) {
	// parents of c nodes: the two b's.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.Parent); got != 2 {
		t.Fatalf("parent count = %d, want 2", got)
	}
}

func TestDescendantAxis(t *testing.T) {
	// descendants of a: everything below the root = 7 nodes.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "a", algebra.Descendant); got != 7 {
		t.Fatalf("descendant count = %d, want 7", got)
	}
	// descendants of b: c,c,d,c = 4.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "b", algebra.Descendant); got != 4 {
		t.Fatalf("descendant-of-b count = %d, want 4", got)
	}
}

func TestDescendantOrSelfAxis(t *testing.T) {
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "b", algebra.DescendantOrSelf); got != 6 {
		t.Fatalf("dos count = %d, want 6", got)
	}
}

func TestAncestorAxis(t *testing.T) {
	// ancestors of c: the two b's and a.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.Ancestor); got != 3 {
		t.Fatalf("ancestor count = %d, want 3", got)
	}
}

func TestAncestorOrSelfAxis(t *testing.T) {
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.AncestorOrSelf); got != 6 {
		t.Fatalf("aos count = %d, want 6", got)
	}
}

func TestSelfAxis(t *testing.T) {
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.Self); got != 3 {
		t.Fatalf("self count = %d, want 3", got)
	}
}

func TestFollowingSiblingAxis(t *testing.T) {
	// siblings after the first c in each b: under b1 (c,c,d): c,d;
	// under b2 (c): none. Also top level: after b1: b2,d; after b2: d —
	// but src is c, so only within the b's.
	if got := treeCount(t, "a(b(c,c,d),b(c),d)", "c", algebra.FollowingSibling); got != 2 {
		t.Fatalf("following-sibling count = %d, want 2", got)
	}
}

func TestFollowingSiblingSplitsRuns(t *testing.T) {
	// a(c,c,c): following-sibling(c) = the 2nd and 3rd c. The compressed
	// instance has one c vertex with multiplicity 3; the run must split.
	in := dagtest.CompressedFromTerm("a(c,c,c)")
	if in.NumVertices() != 2 {
		t.Fatalf("setup: vertices = %d", in.NumVertices())
	}
	out := applyTag(t, in, "c", algebra.FollowingSibling)
	if out.tree != 2 {
		t.Fatalf("selected = %d, want 2\n%s", out.tree, out.inst)
	}
	if out.dag != 1 {
		t.Fatalf("selected DAG vertices = %d, want 1 (split run, shared tail)\n%s", out.dag, out.inst)
	}
	if !out.rewritten || out.verts != 3 {
		t.Fatalf("split run: rewritten=%v, %d live vertices, want a rewrite to 3\n%s",
			out.rewritten, out.verts, out.inst)
	}
}

func TestPrecedingSiblingAxis(t *testing.T) {
	// preceding siblings of {c1,c2,c3}: c1,c2 selected.
	if got := treeCount(t, "a(c,c,c)", "c", algebra.PrecedingSibling); got != 2 {
		t.Fatalf("selected = %d, want 2", got)
	}
}

func TestFollowingAxis(t *testing.T) {
	// following(b1): nodes strictly after b1 in document order, minus
	// ancestors: b2, its c, and d = 3... term a(b(c),b(c),d): following
	// of first b = {b2, c(under b2), d} = 3; following of second b = {d}.
	// src selects BOTH b's, so following(S) = union = {b2, c2, d} = 3.
	if got := treeCount(t, "a(b(c),b(c),d)", "b", algebra.Following); got != 3 {
		t.Fatalf("following count = %d, want 3", got)
	}
}

func TestPrecedingAxis(t *testing.T) {
	// preceding(d) with d last: everything before it except ancestors:
	// b,c,b,c = 4.
	if got := treeCount(t, "a(b(c),b(c),d)", "d", algebra.Preceding); got != 4 {
		t.Fatalf("preceding count = %d, want 4", got)
	}
}

func TestSetOps(t *testing.T) {
	const (
		b = iota
		c
		u
		i
		d
		n
		cols
	)
	ov := acquire(dagtest.CompressedFromTerm("a(b,c,b)"), cols)
	defer ov.Release()
	algebra.OvLabel(ov, skeleton.TagLabel("b"), b)
	algebra.OvLabel(ov, skeleton.TagLabel("c"), c)
	algebra.OvUnion(ov, b, c, u)
	if got := ov.SelectedTree(u); got != 3 {
		t.Fatalf("union = %d, want 3", got)
	}
	algebra.OvIntersect(ov, b, c, i)
	if got := ov.SelectedTree(i); got != 0 {
		t.Fatalf("intersect = %d, want 0", got)
	}
	algebra.OvDifference(ov, u, b, d)
	if got := ov.SelectedTree(d); got != 1 {
		t.Fatalf("difference = %d, want 1", got)
	}
	algebra.OvComplement(ov, b, n)
	if got := ov.SelectedTree(n); got != 2 {
		t.Fatalf("complement = %d, want 2 (a and c)", got)
	}
}

func TestRootFilter(t *testing.T) {
	ov := acquire(dagtest.CompressedFromTerm("a(b)"), 4)
	defer ov.Release()
	algebra.OvLabel(ov, skeleton.TagLabel("a"), 0)
	algebra.OvLabel(ov, skeleton.TagLabel("b"), 1)
	algebra.OvRootFilter(ov, 0, 2)
	if got := ov.SelectedTree(2); got != 2 {
		t.Fatalf("root filter (root selected) = %d, want all 2", got)
	}
	algebra.OvRootFilter(ov, 1, 3)
	if got := ov.SelectedTree(3); got != 0 {
		t.Fatalf("root filter (root unselected) = %d, want 0", got)
	}
}

func TestAddAllAddRoot(t *testing.T) {
	ov := acquire(dagtest.CompressedFromTerm("a(b,b)"), 2)
	defer ov.Release()
	algebra.OvAll(ov, 0)
	if got := ov.SelectedTree(0); got != 3 {
		t.Fatalf("all = %d", got)
	}
	algebra.OvRoot(ov, 1)
	if got := ov.SelectedTree(1); got != 1 {
		t.Fatalf("root = %d", got)
	}
	if !ov.Col(1).Get(ov.Root()) {
		t.Fatal("root selection not on root vertex")
	}
}

// TestUpwardNoDecompression is Corollary 3.7's precondition: upward axes
// never change the DAG.
func TestUpwardNoDecompression(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := dag.Compress(dagtest.RandomTree(r, 60, 4, 3))
		if in.Schema.Len() == 0 {
			return true
		}
		v0, e0 := in.NumVertices(), in.NumEdges()
		upward := []algebra.Axis{algebra.Self, algebra.Parent, algebra.Ancestor, algebra.AncestorOrSelf}
		ov := acquire(in, len(upward)+1)
		defer ov.Release()
		algebra.OvLabel(ov, in.Schema.Name(label.ID(r.Intn(in.Schema.Len()))), 0)
		for i, ax := range upward {
			algebra.OvApplyAxis(ov, ax, i, i+1, -1, -1)
			if v, e := ov.LiveCounts(); v != v0 || e != e0 || ov.Rewritten() {
				t.Logf("%v changed the instance %d/%d -> %d/%d", ax, v0, e0, v, e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDoublingBound checks Propositions 3.2/3.4: one axis application at
// most doubles vertices and edges.
func TestDoublingBound(t *testing.T) {
	axes := []algebra.Axis{
		algebra.Child, algebra.Descendant, algebra.DescendantOrSelf,
		algebra.FollowingSibling, algebra.PrecedingSibling,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := dag.Compress(dagtest.RandomTree(r, 80, 4, 3))
		if base.Schema.Len() == 0 {
			return true
		}
		v0, e0 := base.NumVertices(), base.NumEdges()
		src := base.Schema.Name(label.ID(r.Intn(base.Schema.Len())))
		// Equivalence must be preserved on the original schema.
		keep := make([]label.ID, base.Schema.Len())
		for i := range keep {
			keep[i] = label.ID(i)
		}
		fz := dag.Freeze(base)
		for _, ax := range axes {
			ov := dag.AcquireOverlay(fz)
			ov.EnsureCols(numCols)
			algebra.OvLabel(ov, src, colSrc)
			algebra.OvApplyAxis(ov, ax, colSrc, colDst, colScratchA, colScratchB)
			out := finish(t, ov, colDst)
			ov.Release()
			if out.verts > 2*v0 || out.edges > 2*e0 {
				t.Logf("%v grew %d/%d -> %d/%d", ax, v0, e0, out.verts, out.edges)
				return false
			}
			if !dag.Equivalent(out.inst.Reduct(keep), base) {
				t.Logf("%v changed the underlying document", ax)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestWholeGraphSteps pins the downward axis's whole-graph answers, before
// and after a rewrite has split vertices: descendant-or-self({root}) is
// every live vertex, descendant({root}) and child(V) every live vertex
// but the root, none of them grows the graph, and a label read after the
// rewrite still selects exactly the document's labelled nodes.
func TestWholeGraphSteps(t *testing.T) {
	const (
		lbl = iota
		split
		root
		all
		out
		scratchA
		scratchB
		cols
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := dag.Compress(dagtest.RandomTree(r, 60, 4, 3))
		if in.Schema.Len() == 0 {
			return true
		}
		tree := in.TreeSize()
		name := in.Schema.Name(label.ID(r.Intn(in.Schema.Len())))
		want := in.CountSelectedTree(in.Schema.Lookup(name))
		ov := acquire(in, cols)
		defer ov.Release()
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				// Split runs and shared vertices, then check again.
				algebra.OvLabel(ov, name, lbl)
				algebra.OvApplyAxis(ov, algebra.FollowingSibling, lbl, split, scratchA, scratchB)
			}
			algebra.OvLabel(ov, name, lbl)
			if got := ov.SelectedTree(lbl); got != want {
				t.Logf("pass %d: label %s selects %d nodes, want %d", pass, name, got, want)
				return false
			}
			n := ov.N()
			algebra.OvRoot(ov, root)
			algebra.OvAll(ov, all)
			for _, tc := range []struct {
				axis algebra.Axis
				src  int
				want uint64
			}{
				{algebra.DescendantOrSelf, root, tree},
				{algebra.Descendant, root, tree - 1},
				{algebra.Child, all, tree - 1},
			} {
				algebra.OvApplyAxis(ov, tc.axis, tc.src, out, scratchA, scratchB)
				if got := ov.SelectedTree(out); got != tc.want || ov.N() != n {
					t.Logf("pass %d: %v selects %d of %d nodes (want %d), vertices %d -> %d",
						pass, tc.axis, got, tree, tc.want, n, ov.N())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAxisInverseRoundTrip(t *testing.T) {
	for a := algebra.Self; a <= algebra.Preceding; a++ {
		if a.Inverse().Inverse() != a {
			t.Errorf("%v: double inverse mismatch", a)
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	ov := acquire(dag.New(), numCols)
	defer ov.Release()
	for _, ax := range []algebra.Axis{algebra.Child, algebra.Parent, algebra.Descendant, algebra.FollowingSibling, algebra.Following} {
		algebra.OvApplyAxis(ov, ax, colSrc, colDst, colScratchA, colScratchB)
		if v, e := ov.LiveCounts(); v != 0 || e != 0 || ov.Root() != dag.NilVertex {
			t.Fatalf("%v on empty instance produced %d vertices, %d edges", ax, v, e)
		}
	}
	if out := finish(t, ov, colDst); out.tree != 0 || out.inst.NumVertices() != 0 {
		t.Fatalf("empty instance selected %d nodes over %d vertices", out.tree, out.inst.NumVertices())
	}
}
