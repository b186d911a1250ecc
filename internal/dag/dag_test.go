package dag_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/label"
	"repro/internal/skeleton"
)

// fig1Term is the bibliographic document of Example 1.1 / Figure 1.
const fig1Term = `bib(
	book(title,author,author,author),
	paper(title,author),
	paper(title,author))`

func TestFigure1Compression(t *testing.T) {
	tree := dagtest.FromTerm(fig1Term)
	if got, want := tree.NumVertices(), 12; got != want {
		t.Fatalf("tree vertices = %d, want %d", got, want)
	}
	m := dag.Compress(tree)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 1 (b): bib, book, paper, title, author — 5 shared vertices.
	if got, want := m.NumVertices(), 5; got != want {
		t.Fatalf("compressed vertices = %d, want %d\n%s", got, want, m)
	}
	// Figure 1 (c): with multiplicities, edges are
	// bib->book, bib->paper(x2), book->title, book->author(x3),
	// paper->title, paper->author.
	if got, want := m.NumEdges(), 6; got != want {
		t.Fatalf("compressed RLE edges = %d, want %d\n%s", got, want, m)
	}
	if got, want := m.NumExpandedEdges(), uint64(9); got != want {
		t.Fatalf("expanded edges = %d, want %d", got, want)
	}
	if !dag.Equivalent(tree, m) {
		t.Fatal("compressed instance not equivalent to tree")
	}
	if !dag.Minimal(m) {
		t.Fatal("compressed instance not minimal")
	}
	if dag.Minimal(tree) {
		t.Fatal("the Figure 1 tree should not be minimal")
	}
}

func TestFigure2Equivalence(t *testing.T) {
	// Figure 2 (a) is the compressed instance, (b) a partial
	// decompression distinguishing one paper vertex. Both must be
	// equivalent to the original tree.
	a := dag.Compress(dagtest.FromTerm(fig1Term))
	b := dagtest.Expand(rand.New(rand.NewSource(42)), a)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if !dag.Equivalent(a, b) {
		t.Fatalf("expansion broke equivalence:\n%s\n%s", a, b)
	}
	if !dag.EquivalentByPaths(a, b, 10000) {
		t.Fatal("path-set equivalence disagrees")
	}
}

func TestDecompressRoundTrip(t *testing.T) {
	tree := dagtest.FromTerm(fig1Term)
	m := dag.Compress(tree)
	back, err := dag.Decompress(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dag.IsTree(back) {
		t.Fatal("decompressed instance is not a tree")
	}
	if got, want := back.NumVertices(), tree.NumVertices(); got != want {
		t.Fatalf("decompressed vertices = %d, want %d", got, want)
	}
	if !dag.Equivalent(tree, back) {
		t.Fatal("decompression is not equivalent to the original tree")
	}
}

func TestTreeSizeWithoutDecompression(t *testing.T) {
	// A complete binary tree of depth 20 compresses to 21 vertices but
	// TreeSize must still report 2^21 - 1.
	b := dag.NewBuilder(nil)
	leafLabels := label.Set(nil).Set(b.Schema().Intern("tag:n"))
	cur := b.Add(leafLabels, nil)
	for d := 0; d < 20; d++ {
		cur = b.Add(leafLabels, []dag.VertexID{cur, cur})
	}
	b.SetRoot(cur)
	in := b.Instance()
	if got, want := in.NumVertices(), 21; got != want {
		t.Fatalf("vertices = %d, want %d", got, want)
	}
	if got, want := in.TreeSize(), uint64(1<<21-1); got != want {
		t.Fatalf("TreeSize = %d, want %d", got, want)
	}
	if _, err := dag.Decompress(in, 100); err == nil {
		t.Fatal("Decompress should fail under a 100-node limit")
	}
}

func TestDecompressLimit(t *testing.T) {
	in := dagtest.CompressedFromTerm("a(b,b,b)")
	if _, err := dag.Decompress(in, 2); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestPathCounts(t *testing.T) {
	m := dag.Compress(dagtest.FromTerm(fig1Term))
	counts := m.PathCounts()
	var author label.ID = m.Schema.Lookup(skeleton.TagLabel("author"))
	if author == label.Invalid {
		t.Fatal("author label missing")
	}
	if got, want := m.CountSelectedTree(author), uint64(5); got != want {
		t.Fatalf("author tree count = %d, want %d", got, want)
	}
	// The root has exactly one path.
	if counts[m.Root] != 1 {
		t.Fatalf("root path count = %d", counts[m.Root])
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	cases := map[string]*dag.Instance{
		"cycle": {
			Verts: []dag.Vertex{
				{Edges: []dag.Edge{{Child: 1, Count: 1}}},
				{Edges: []dag.Edge{{Child: 0, Count: 1}}},
			},
			Root:   0,
			Schema: label.NewSchema(),
		},
		"zero multiplicity": {
			Verts: []dag.Vertex{
				{Edges: []dag.Edge{{Child: 1, Count: 0}}},
				{},
			},
			Root:   0,
			Schema: label.NewSchema(),
		},
		"unmerged run": {
			Verts: []dag.Vertex{
				{Edges: []dag.Edge{{Child: 1, Count: 1}, {Child: 1, Count: 2}}},
				{},
			},
			Root:   0,
			Schema: label.NewSchema(),
		},
		"unreachable vertex": {
			Verts: []dag.Vertex{
				{},
				{},
			},
			Root:   0,
			Schema: label.NewSchema(),
		},
		"root out of range": {
			Verts:  []dag.Vertex{{}},
			Root:   3,
			Schema: label.NewSchema(),
		},
	}
	for name, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid instance", name)
		}
	}
}

func TestValidateAcceptsEmpty(t *testing.T) {
	in := dag.New()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReduct(t *testing.T) {
	in := dagtest.CompressedFromTerm("a(b,c)")
	aID := in.Schema.Lookup(skeleton.TagLabel("a"))
	bID := in.Schema.Lookup(skeleton.TagLabel("b"))
	cID := in.Schema.Lookup(skeleton.TagLabel("c"))
	red := in.Reduct([]label.ID{aID, bID})
	if red.CountSelected(aID) != 1 || red.CountSelected(bID) != 1 {
		t.Fatal("reduct dropped kept labels")
	}
	if red.CountSelected(cID) != 0 {
		t.Fatal("reduct retained a dropped label")
	}
	// Dropping a label changes the equivalence class unless the check is
	// restricted to kept labels; the original must be unchanged.
	if in.CountSelected(cID) != 1 {
		t.Fatal("Reduct mutated its receiver")
	}
}

func TestCompressIdempotent(t *testing.T) {
	seed := int64(7)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		tree := dagtest.RandomTree(r, 60, 4, 2)
		m1 := dag.Compress(tree)
		m2 := dag.Compress(m1)
		if m1.NumVertices() != m2.NumVertices() || m1.NumEdges() != m2.NumEdges() {
			t.Fatalf("compression not idempotent: %d/%d -> %d/%d",
				m1.NumVertices(), m1.NumEdges(), m2.NumVertices(), m2.NumEdges())
		}
		if !dag.Minimal(m1) {
			t.Fatalf("Compress output not minimal:\n%s", m1)
		}
	}
}

// TestPropertyCompressionPreservesPaths is the definition-literal check of
// Proposition 2.3: compression never changes Π(V) or Π(S).
func TestPropertyCompressionPreservesPaths(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := dagtest.RandomTree(r, 40, 3, 2)
		m := dag.Compress(tree)
		return dag.EquivalentByPaths(tree, m, 100000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExpansionInvariance: random partial decompressions stay in
// the same equivalence class and recompress to the same minimal instance
// (uniqueness, Proposition 2.5).
func TestPropertyExpansionInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := dagtest.RandomTree(r, 40, 3, 2)
		m := dag.Compress(tree)
		ex := dagtest.Expand(r, m)
		if ex.Validate() != nil {
			return false
		}
		if !dag.Equivalent(m, ex) {
			return false
		}
		m2 := dag.Compress(ex)
		return m2.NumVertices() == m.NumVertices() && m2.NumEdges() == m.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTreeSizeAgrees: TreeSize computed arithmetically must equal
// the actual size of the decompressed tree.
func TestPropertyTreeSizeAgrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := dag.Compress(dagtest.RandomTree(r, 50, 4, 2))
		tr, err := dag.Decompress(m, 1<<20)
		if err != nil {
			return false
		}
		return uint64(tr.NumVertices()) == m.TreeSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentDistinguishesLabels(t *testing.T) {
	a := dagtest.CompressedFromTerm("a(b,c)")
	b := dagtest.CompressedFromTerm("a(b,b)")
	if dag.Equivalent(a, b) {
		t.Fatal("instances with different tag paths reported equivalent")
	}
	c := dagtest.CompressedFromTerm("a(b,c)")
	if !dag.Equivalent(a, c) {
		t.Fatal("identical instances reported inequivalent")
	}
	// Same shape, different order: order is significant.
	d := dagtest.CompressedFromTerm("a(c,b)")
	if dag.Equivalent(a, d) {
		t.Fatal("order of out-edges must be significant")
	}
}

func TestCommonExtension(t *testing.T) {
	// Two labelings of the same tree: one records tag "a", the other tag
	// "b". Their common extension must carry both.
	tree := dagtest.FromTerm("a(b,b,c(b))")
	aID := tree.Schema.Lookup(skeleton.TagLabel("a"))
	bID := tree.Schema.Lookup(skeleton.TagLabel("b"))
	cID := tree.Schema.Lookup(skeleton.TagLabel("c"))

	onlyA := dag.Compress(tree.Reduct([]label.ID{aID}))
	onlyB := dag.Compress(tree.Reduct([]label.ID{bID}))
	_ = cID

	ext, err := dag.CommonExtension(onlyA, onlyB)
	if err != nil {
		t.Fatal(err)
	}
	if err := ext.Validate(); err != nil {
		t.Fatal(err)
	}
	extA := ext.Schema.Lookup(skeleton.TagLabel("a"))
	extB := ext.Schema.Lookup(skeleton.TagLabel("b"))
	if ext.CountSelectedTree(extA) != 1 {
		t.Fatalf("extension selects %d 'a' nodes, want 1", ext.CountSelectedTree(extA))
	}
	if ext.CountSelectedTree(extB) != 3 {
		t.Fatalf("extension selects %d 'b' nodes, want 3", ext.CountSelectedTree(extB))
	}
	// Reducts of the extension must be equivalent to the inputs
	// (the definition of common extension, Section 2.3).
	if !dag.Equivalent(ext.Reduct([]label.ID{extA}), onlyA) {
		t.Fatal("reduct to σ not equivalent to first input")
	}
	if !dag.Equivalent(ext.Reduct([]label.ID{extB}), onlyB) {
		t.Fatal("reduct to τ not equivalent to second input")
	}
}

func TestCommonExtensionIncompatible(t *testing.T) {
	a := dagtest.CompressedFromTerm("a(b,b)")
	b := dagtest.CompressedFromTerm("a(b,b,b)")
	if _, err := dag.CommonExtension(a, b); err == nil {
		t.Fatal("expected incompatibility error for different tree shapes")
	}
}

// TestPropertyCommonExtensionReducts checks Lemma 2.7 on random trees with
// random label splits.
func TestPropertyCommonExtensionReducts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := dagtest.RandomTree(r, 40, 3, 3)
		var ids []label.ID
		for i := 0; i < tree.Schema.Len(); i++ {
			ids = append(ids, label.ID(i))
		}
		if len(ids) < 2 {
			return true
		}
		// Split the schema into two overlapping halves.
		cut := 1 + r.Intn(len(ids)-1)
		a := dag.Compress(tree.Reduct(ids[:cut]))
		b := dag.Compress(tree.Reduct(ids[cut-1:]))
		ext, err := dag.CommonExtension(a, b)
		if err != nil {
			return false
		}
		ra := make([]label.ID, 0, cut)
		for _, id := range ids[:cut] {
			ra = append(ra, ext.Schema.Lookup(tree.Schema.Name(id)))
		}
		rb := make([]label.ID, 0, len(ids)-cut+1)
		for _, id := range ids[cut-1:] {
			rb = append(rb, ext.Schema.Lookup(tree.Schema.Name(id)))
		}
		return dag.Equivalent(ext.Reduct(ra), a) && dag.Equivalent(ext.Reduct(rb), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationalAsymptotics(t *testing.T) {
	// Introduction claim: an R x C table's skeleton is O(C*R) as a tree
	// but O(C) vertices/edges once compressed with multiplicities
	// (O(C + log R) counting the bits of the multiplicity).
	build := func(rows, cols int) *dag.Instance {
		b := dag.NewBuilder(nil)
		var cells []dag.VertexID
		for c := 0; c < cols; c++ {
			var ls label.Set
			ls = ls.Set(b.Schema().Intern("tag:col" + string(rune('a'+c))))
			cells = append(cells, b.Add(ls, nil))
		}
		var rowIDs []dag.VertexID
		for i := 0; i < rows; i++ {
			var ls label.Set
			ls = ls.Set(b.Schema().Intern("tag:row"))
			rowIDs = append(rowIDs, b.Add(ls, cells))
		}
		var ls label.Set
		ls = ls.Set(b.Schema().Intern("tag:table"))
		b.SetRoot(b.Add(ls, rowIDs))
		return b.Instance()
	}
	for _, rows := range []int{10, 100, 1000} {
		in := build(rows, 8)
		if got, want := in.NumVertices(), 8+2; got != want {
			t.Fatalf("rows=%d: vertices = %d, want %d (independent of R)", rows, got, want)
		}
		if got, want := in.NumEdges(), 8+1; got != want {
			t.Fatalf("rows=%d: edges = %d, want %d (independent of R)", rows, got, want)
		}
		if got, want := in.TreeSize(), uint64(1+rows*(8+1)); got != want {
			t.Fatalf("rows=%d: tree size = %d, want %d", rows, got, want)
		}
	}
}

func TestBuilderPrunesUnreachable(t *testing.T) {
	b := dag.NewBuilder(nil)
	orphan := b.Add(nil, nil)
	root := b.Add(label.Set(nil).Set(b.Schema().Intern("tag:r")), nil)
	_ = orphan
	b.SetRoot(root)
	in := b.Instance()
	if got := in.NumVertices(); got != 1 {
		t.Fatalf("vertices = %d, want 1 (orphan pruned)", got)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSharing(t *testing.T) {
	b := dag.NewBuilder(nil)
	ls := label.Set(nil).Set(b.Schema().Intern("tag:x"))
	v1 := b.Add(ls, nil)
	v2 := b.Add(ls, nil)
	if v1 != v2 {
		t.Fatal("identical vertices not shared")
	}
	other := label.Set(nil).Set(b.Schema().Intern("tag:y"))
	v3 := b.Add(other, nil)
	if v3 == v1 {
		t.Fatal("distinct vertices shared")
	}
	// Runs merge: a(x,x) has child edges [x(x2)].
	p1 := b.Add(ls, []dag.VertexID{v1, v1})
	p2 := b.AddEdges(ls, []dag.Edge{{Child: v1, Count: 2}})
	if p1 != p2 {
		t.Fatal("Add did not run-length-encode consecutive children")
	}
}

func TestWriteDOT(t *testing.T) {
	in := dagtest.CompressedFromTerm("a(b,b,c)")
	var sb strings.Builder
	if err := dag.WriteDOT(&sb, in, "test"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "tag:a", "tag:b", "(x2)", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}
