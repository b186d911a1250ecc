package engine_test

import (
	"math/rand"

	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// run evaluates query on doc via the compressed-instance engine and checks
// the materialized result instance's invariants.
func run(t *testing.T, doc []byte, query string) *engine.Result {
	t.Helper()
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		t.Fatalf("build %q: %v", query, err)
	}
	res, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		t.Fatalf("run %q: %v", query, err)
	}
	mat, _ := res.Materialize()
	if err := mat.Validate(); err != nil {
		t.Fatalf("query %q broke instance invariants: %v", query, err)
	}
	return res
}

const bibXML = `<bib>
<book><title>t</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book>
<paper><title>t</title><author>Codd</author></paper>
<paper><title>t</title><author>Vardi</author></paper>
</bib>`

func TestSimplePaths(t *testing.T) {
	cases := []struct {
		query string
		want  uint64
	}{
		{`/bib`, 1},
		{`/bib/book`, 1},
		{`/bib/paper`, 2},
		{`/bib/book/author`, 3},
		{`//author`, 5},
		{`//paper/author`, 2},
		{`/bib/*`, 3},
		{`//*`, 12},
		{`/self::*`, 1},
		{`/bib/paper/title`, 2},
		{`//book/following-sibling::paper`, 2},
		{`//paper/preceding-sibling::book`, 1},
		{`//author/parent::paper`, 2},
		{`//title/following-sibling::author`, 5},
		{`//book/descendant-or-self::*`, 5},
		{`//author/ancestor::*`, 5}, // incl. the document node (* matches any vertex in the paper's model)
	}
	doc := []byte(bibXML)
	for _, c := range cases {
		res := run(t, doc, c.query)
		if res.SelectedTree != c.want {
			t.Errorf("%s: selected %d tree nodes, want %d", c.query, res.SelectedTree, c.want)
		}
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		query string
		want  uint64
	}{
		{`//paper[author["Codd"]]`, 1},
		{`//paper[author["Codd"] or author["Vardi"]]`, 2},
		{`//paper[author["Codd"] and author["Vardi"]]`, 0},
		{`//paper[not(author["Codd"])]`, 1},
		{`//book[author["Hull"] and author["Vianu"]]`, 1},
		{`/self::*[bib/book/author]`, 1},
		{`/self::*[bib/nosuch]`, 0},
		{`//paper[/bib/book]`, 2},                       // absolute condition holds
		{`//paper[/bib/nosuch]`, 0},                     // absolute condition fails
		{`//author[not(following-sibling::author)]`, 3}, // last author of each pub
		{`//*["Codd"]`, 3},                              // paper, its author, and bib (string value)
	}
	doc := []byte(bibXML)
	for _, c := range cases {
		res := run(t, doc, c.query)
		if res.SelectedTree != c.want {
			t.Errorf("%s: selected %d tree nodes, want %d", c.query, res.SelectedTree, c.want)
		}
	}
}

func TestExample31NotFollowing(t *testing.T) {
	// Example 3.1's distinctive condition: nodes with no following nodes.
	// In bibXML document order the last nodes are the second paper, its
	// title+author... following(x) empty means x is on the "right spine":
	// bib, last paper, and the last paper's last child (author).
	res := run(t, []byte(bibXML), `//*[not(following::*)]`)
	if res.SelectedTree != 3 {
		t.Errorf("selected %d, want 3", res.SelectedTree)
	}
}

// TestFigure5 reproduces the Figure 5 scenario: a complete binary tree of
// depth 5 (31 nodes, levels labelled a,b,a,b,a) compresses to 5 vertices;
// the figure's eight queries evaluate correctly (checked against the
// independent baseline evaluator) with only modest decompression.
func TestFigure5(t *testing.T) {
	var build func(depth int) string
	build = func(level int) string {
		tag := "a"
		if level%2 == 1 {
			tag = "b"
		}
		if level == 4 {
			return "<" + tag + "></" + tag + ">"
		}
		sub := build(level + 1)
		return "<" + tag + ">" + sub + sub + "</" + tag + ">"
	}
	doc := []byte(build(0))

	queries := []string{ // Figure 5 (b)-(i)
		`//a`, `//a/b`, `/a`, `/a/a`, `/a/a/b`, `/*`, `/*/a`, `/*/a/following::*`,
	}
	// Note: in the figure the context is the root and "a", "a/a" etc.
	// are relative paths from it; with levels a,b,a,b,a the root is 'a',
	// so /a matches the root and /a/a is empty (children are b) — the
	// figure's labelling differs, but the point under test is agreement
	// with the oracle plus bounded decompression, which is labelling-
	// independent.
	tree, err := baseline.Build(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res := run(t, doc, q)
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Eval(tree, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantN := res.SelectedTree, uint64(baseline.Count(want)); got != wantN {
			t.Errorf("%s: selected %d, want %d", q, got, wantN)
		}
		// The compressed complete binary tree has 5 vertices (one per
		// level); one query may at most double per axis application but
		// must stay far below the 31-node tree.
		if res.VertsBefore != 6 {
			t.Errorf("%s: initial instance has %d vertices, want 6", q, res.VertsBefore)
		}
		if res.VertsAfter > 32 {
			t.Errorf("%s: decompressed beyond the tree size: %d", q, res.VertsAfter)
		}
	}
}

func TestUpwardOnlyQueriesDoNotDecompress(t *testing.T) {
	// Q1-style tree pattern queries compile to upward axes only
	// (Corollary 3.7): the instance must not grow at all.
	doc := []byte(bibXML)
	for _, q := range []string{
		`/self::*[bib/book/author]`,
		`/self::*[bib/paper/title]`,
		`/self::*[bib/book[author] and bib/paper]`,
	} {
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Downward {
			t.Errorf("%s: compiled with downward axes", q)
		}
		res := run(t, doc, q)
		if res.VertsAfter != res.VertsBefore || res.EdgesAfter != res.EdgesBefore {
			t.Errorf("%s: instance grew %d/%d -> %d/%d", q,
				res.VertsBefore, res.EdgesBefore, res.VertsAfter, res.EdgesAfter)
		}
	}
}

// TestDifferentialEngineVsBaseline is the central correctness test: on
// random documents and random queries, evaluation on the compressed
// instance must select exactly the same number of tree nodes as the
// independent uncompressed-tree evaluator.
func TestDifferentialEngineVsBaseline(t *testing.T) {
	tags := []string{"t0", "t1", "t2", "t3", "t4"}
	words := []string{"alpha", "beta", "gamma", "veto", "alp"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 100, 4, len(tags))
		query := dagtest.RandomQuery(r, tags, words)
		prog, err := xpath.CompileQuery(query)
		if err != nil {
			t.Logf("compile %q: %v", query, err)
			return false
		}

		inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
			Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
		})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		res, err := engine.RunFrozen(dag.Freeze(inst), prog)
		if err != nil {
			t.Logf("engine %q: %v", query, err)
			return false
		}
		mat, _ := res.Materialize()
		if err := mat.Validate(); err != nil {
			t.Logf("invariants after %q: %v", query, err)
			return false
		}

		tree, err := baseline.Build(doc, prog.Strings)
		if err != nil {
			t.Logf("baseline build: %v", err)
			return false
		}
		want, err := baseline.Eval(tree, prog)
		if err != nil {
			t.Logf("baseline %q: %v", query, err)
			return false
		}
		if res.SelectedTree != uint64(baseline.Count(want)) {
			t.Logf("MISMATCH query %s\ndoc %s\nengine=%d baseline=%d",
				query, doc, res.SelectedTree, baseline.Count(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialSelectedSetsExactly strengthens the count comparison to
// exact node identity by decompressing the result instance and walking it
// in document order alongside the baseline tree.
func TestDifferentialSelectedSetsExactly(t *testing.T) {
	tags := []string{"t0", "t1", "t2"}
	words := []string{"alpha", "beta"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 60, 3, len(tags))
		query := dagtest.RandomQuery(r, tags, words)
		prog, err := xpath.CompileQuery(query)
		if err != nil {
			return false
		}
		inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
			Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
		})
		if err != nil {
			return false
		}
		res, err := engine.RunFrozen(dag.Freeze(inst), prog)
		if err != nil {
			return false
		}
		mat, lbl := res.Materialize()
		full, err := dag.Decompress(mat, 1<<20)
		if err != nil {
			return false
		}
		// Preorder walk of the decompressed instance.
		var sel []bool
		var walk func(v dag.VertexID)
		walk = func(v dag.VertexID) {
			sel = append(sel, full.Verts[v].Labels.Has(lbl))
			for _, e := range full.Verts[v].Edges {
				walk(e.Child)
			}
		}
		walk(full.Root)

		tree, err := baseline.Build(doc, prog.Strings)
		if err != nil {
			return false
		}
		want, err := baseline.Eval(tree, prog)
		if err != nil {
			return false
		}
		if len(sel) != len(want) {
			t.Logf("size mismatch: %d vs %d (query %s)", len(sel), len(want), query)
			return false
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Logf("node %d differs (query %s, doc %s)", i, query, doc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestRecompress(t *testing.T) {
	// After a decompressing query, Recompress must shrink the instance
	// back while preserving the selection (Section 3.3).
	doc := []byte(bibXML)
	res := run(t, doc, `/bib/paper/title`)
	selTree := res.SelectedTree
	grew := res.VertsAfter
	res.Recompress()
	if err := res.Instance.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != selTree {
		t.Fatalf("tree count changed: %d -> %d", selTree, res.SelectedTree)
	}
	if res.Instance.CountSelectedTree(res.Label) != selTree {
		t.Fatal("recompressed selection covers different tree nodes")
	}
	if res.VertsAfter > grew {
		t.Fatalf("recompression grew the instance: %d -> %d", grew, res.VertsAfter)
	}
	if !dag.Minimal(res.Instance) {
		t.Fatal("recompressed instance not minimal")
	}
}

func TestSelectedPathsThroughEngine(t *testing.T) {
	res := run(t, []byte(bibXML), `//paper/author`)
	paths := res.View.Paths(10)
	// bib is child 1 of the document node; papers are its children 2,3;
	// each author is child 2 of its paper.
	want := []string{"1.2.2", "1.3.2"}
	if len(paths) != 2 || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
}

func TestMissingTagSelectsNothing(t *testing.T) {
	res := run(t, []byte(`<a><b/></a>`), `//zzz`)
	if res.SelectedTree != 0 {
		t.Fatalf("selected %d, want 0", res.SelectedTree)
	}
}

func TestQueryOnUncompressedTreeAlsoWorks(t *testing.T) {
	// The algebra is representation-agnostic: running on the tree
	// instance gives the same answer (the "competitive even when applied
	// to uncompressed data" claim of Section 6).
	doc := []byte(bibXML)
	query := `//paper[author["Codd"]]/title`
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := skeleton.BuildTree(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunFrozen(dag.Freeze(tree), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != 1 {
		t.Fatalf("selected %d, want 1", res.SelectedTree)
	}
	if res.VertsAfter != res.VertsBefore {
		t.Fatal("tree evaluation must not grow the instance")
	}
}

func TestResultInstanceStillRepresentsDocument(t *testing.T) {
	doc := []byte(bibXML)
	res := run(t, doc, `//paper/author`)
	// Dropping all query selections and tags must leave an instance
	// equivalent to the bare skeleton.
	bare, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsNone})
	if err != nil {
		t.Fatal(err)
	}
	mat, _ := res.Materialize()
	if !dag.Equivalent(mat.Reduct(nil), bare) {
		t.Fatal("query evaluation changed the underlying document structure")
	}
}
