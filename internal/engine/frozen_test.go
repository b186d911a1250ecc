package engine_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/dagtest"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// buildFor distils a compressed instance over exactly prog's schema.
func buildFor(t *testing.T, doc []byte, prog *xpath.Program) *dag.Instance {
	t.Helper()
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// compareOverlayBaseline runs prog on inst with the overlay evaluator and
// fails on any divergence from the reference evaluator (internal/baseline)
// over doc's uncompressed tree — the selected-node count and the full
// result address list — or on a materialized result instance that breaks
// the structural invariants or disagrees with the reported statistics.
func compareOverlayBaseline(t *testing.T, doc []byte, inst *dag.Instance, prog *xpath.Program, ctx string) {
	t.Helper()
	res, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		t.Fatalf("%s: overlay run: %v", ctx, err)
	}
	tree, err := baseline.Build(doc, prog.Strings)
	if err != nil {
		t.Fatalf("%s: baseline build: %v", ctx, err)
	}
	want, err := baseline.Eval(tree, prog)
	if err != nil {
		t.Fatalf("%s: baseline eval: %v", ctx, err)
	}

	if n := uint64(baseline.Count(want)); res.SelectedTree != n {
		t.Fatalf("%s: overlay selects %d tree nodes, baseline %d", ctx, res.SelectedTree, n)
	}
	const maxPaths = 1 << 20
	wantPaths := dagtest.BaselinePaths(tree, want)
	if got := res.View.Paths(maxPaths); !slices.Equal(got, wantPaths) {
		t.Fatalf("%s: paths diverge:\noverlay:  %v\nbaseline: %v", ctx, got, wantPaths)
	}
	// Truncated address lists are prefixes: the walk's early stop (at max
	// or at the last selected node) loses and reorders nothing.
	n := len(wantPaths)
	for _, k := range []int{1, n / 2, n, n + 1} {
		if got, want := res.View.Paths(k), wantPaths[:min(k, n)]; !slices.Equal(got, want) {
			t.Fatalf("%s: Paths(%d) diverge:\noverlay:  %v\nbaseline: %v", ctx, k, got, want)
		}
	}
	if res.VertsBefore != inst.NumVertices() || res.EdgesBefore != inst.NumEdges() {
		t.Fatalf("%s: before-sizes %d/%d, instance has %d/%d",
			ctx, res.VertsBefore, res.EdgesBefore, inst.NumVertices(), inst.NumEdges())
	}

	mat, lbl := res.Materialize()
	if err := mat.Validate(); err != nil {
		t.Fatalf("%s: materialized overlay result invalid: %v", ctx, err)
	}
	if mat.NumVertices() != res.VertsAfter || mat.NumEdges() != res.EdgesAfter {
		t.Fatalf("%s: materialized %d/%d vertices/edges, after-sizes %d/%d",
			ctx, mat.NumVertices(), mat.NumEdges(), res.VertsAfter, res.EdgesAfter)
	}
	if got := mat.CountSelected(lbl); got != res.SelectedDAG {
		t.Fatalf("%s: materialized selection %d, view %d", ctx, got, res.SelectedDAG)
	}
	if got := mat.CountSelectedTree(lbl); got != res.SelectedTree {
		t.Fatalf("%s: materialized tree selection %d, view %d", ctx, got, res.SelectedTree)
	}
	if got := dag.SelectedPaths(mat, lbl, maxPaths); !slices.Equal(got, wantPaths) {
		t.Fatalf("%s: materialized paths diverge:\nmaterialized: %v\nbaseline:     %v", ctx, got, wantPaths)
	}
}

// TestOverlayGoldenCorpora is the golden overlay-vs-baseline equality
// sweep: every corpus × every query, on compressed instances distilled
// over each query's schema.
func TestOverlayGoldenCorpora(t *testing.T) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(c.DefaultScale/12+2, 7)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			inst := buildFor(t, doc, prog)
			compareOverlayBaseline(t, doc, inst, prog, c.Name+" Q"+string(rune('1'+qi)))
		}
	}
}

// TestOverlayGoldenFullTag mirrors the prepared-document serving path:
// full-tag instances (skeleton.TagsAll), tag-only queries.
func TestOverlayGoldenFullTag(t *testing.T) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(c.DefaultScale/12+2, 11)
		inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(prog.Strings) > 0 {
				continue // string marks are absent from a pure tag instance
			}
			compareOverlayBaseline(t, doc, inst, prog, c.Name+" full-tag Q"+string(rune('1'+qi)))
		}
	}
}

// TestOverlayAxes exercises every axis individually on a small document
// with sharing and multiplicity runs.
func TestOverlayAxes(t *testing.T) {
	doc := []byte(`<bib>
<book><title>t</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author></book>
<paper><title>t</title><author>Codd</author></paper>
<paper><title>t</title><author>Vardi</author></paper>
</bib>`)
	queries := []string{
		`/bib`,
		`/bib/book/author`,
		`//author`,
		`//paper/author`,
		`/bib/*`,
		`//*`,
		`/self::*[bib/paper]`,
		`//author[following-sibling::author]`,
		`//author[preceding-sibling::author]`,
		`//paper[preceding-sibling::book]/author`,
		`//title[following::author]`,
		`//author[preceding::book]`,
		`//book[descendant::author]`,
		`//author[ancestor::bib]`,
		`//author[not(following-sibling::author)]`,
		`/bib/book[author and title]`,
		`//paper[author["Codd"] or author["Vardi"]]`,
		`/descendant-or-self::author`,
		`//book/descendant-or-self::*`,
	}
	for _, q := range queries {
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		inst := buildFor(t, doc, prog)
		compareOverlayBaseline(t, doc, inst, prog, q)
	}
}

// TestOverlayPropertyRandom cross-checks overlay and baseline evaluation
// on random trees and random queries.
func TestOverlayPropertyRandom(t *testing.T) {
	tags := []string{"t0", "t1", "t2"}
	words := []string{"alpha", "beta", "veto"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := dagtest.RandomXML(r, 60, 4, len(tags))
		for i := 0; i < 4; i++ {
			q := dagtest.RandomQuery(r, tags, words)
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				continue
			}
			inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				t.Logf("build %q: %v", q, err)
				return false
			}
			compareOverlayBaseline(t, doc, inst, prog, q+" on "+string(doc))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
