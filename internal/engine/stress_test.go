package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// TestManySchemaLabels pushes the schema beyond one bitset word (>64
// relations) through the whole pipeline.
func TestManySchemaLabels(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&sb, "<tag%03d>v%d</tag%03d>", i, i, i)
	}
	sb.WriteString("</root>")
	doc := []byte(sb.String())

	// TagsAll registers all 150 tags; query one with a high label ID.
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Schema.Len() < 150 {
		t.Fatalf("schema = %d labels", inst.Schema.Len())
	}
	prog, err := xpath.CompileQuery(`//tag149`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != 1 {
		t.Fatalf("selected %d, want 1", res.SelectedTree)
	}

	// Chain of set ops keeps adding temporaries past further word
	// boundaries.
	var conds []string
	for i := 0; i < 40; i++ {
		conds = append(conds, fmt.Sprintf("tag%03d", i))
	}
	q := `/root[` + strings.Join(conds, " and ") + `]`
	res2 := run(t, doc, q)
	if res2.SelectedTree != 1 {
		t.Fatalf("conjunctive query selected %d, want 1", res2.SelectedTree)
	}
}

// TestDeepDocument runs the pipeline on 20000 levels of nesting: parsing,
// compression (the chain compresses to 20001 vertices — no sharing),
// downward and upward axes.
func TestDeepDocument(t *testing.T) {
	const depth = 20000
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteString("<d>")
	}
	sb.WriteString("<leaf/>")
	for i := 0; i < depth; i++ {
		sb.WriteString("</d>")
	}
	doc := []byte(sb.String())

	res := run(t, doc, `//leaf`)
	if res.SelectedTree != 1 {
		t.Fatalf("selected %d, want 1", res.SelectedTree)
	}
	res = run(t, doc, `//leaf/ancestor::*`)
	if res.SelectedTree != depth+1 { // d-chain + document node
		t.Fatalf("ancestors = %d, want %d", res.SelectedTree, depth+1)
	}
	res = run(t, doc, `/self::*[d//leaf]`)
	if res.SelectedTree != 1 {
		t.Fatalf("tree pattern selected %d, want 1", res.SelectedTree)
	}
}

// TestHugeSiblingRun exercises multiplicity handling on one element with
// 200000 identical children — two RLE edges total, constant-size instance.
func TestHugeSiblingRun(t *testing.T) {
	const n = 200000
	var sb strings.Builder
	sb.WriteString("<r><first/>")
	for i := 0; i < n; i++ {
		sb.WriteString("<c/>")
	}
	sb.WriteString("</r>")
	doc := []byte(sb.String())

	prog, err := xpath.CompileQuery(`//first/following-sibling::c`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumVertices() > 5 {
		t.Fatalf("instance has %d vertices; run should collapse", inst.NumVertices())
	}
	res, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != n {
		t.Fatalf("selected %d, want %d", res.SelectedTree, n)
	}
	// The selection is one shared vertex with multiplicity n.
	if res.SelectedDAG != 1 {
		t.Fatalf("selected DAG vertices = %d, want 1", res.SelectedDAG)
	}

	// preceding-sibling over the run splits once, not n times.
	prog2, err := xpath.CompileQuery(`//c[not(preceding-sibling::c)]`)
	if err != nil {
		t.Fatal(err)
	}
	inst2, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog2.Tags, Strings: prog2.Strings,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := engine.RunFrozen(dag.Freeze(inst2), prog2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SelectedTree != 1 {
		t.Fatalf("first-of-run selected %d, want 1", res2.SelectedTree)
	}
	if res2.VertsAfter > res2.VertsBefore+3 {
		t.Fatalf("run split exploded: %d -> %d", res2.VertsBefore, res2.VertsAfter)
	}
}

// TestWideRandomAgreement runs a couple of heavier differential rounds on
// larger random documents than the quick-check default.
func TestWideRandomAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy differential round")
	}
	doc := []byte(buildWide())
	for _, q := range []string{
		`//x//y`,
		`//y[following-sibling::x]`,
		`//x[not(y) and following::y]`,
		`//*[y and not(x)]/parent::x`,
	} {
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
			Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.RunFrozen(dag.Freeze(inst), prog)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := baseline.Build(doc, prog.Strings)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := baseline.Eval(tree, prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.SelectedTree != uint64(baseline.Count(sel)) {
			t.Errorf("%s: engine %d != baseline %d", q, res.SelectedTree, baseline.Count(sel))
		}
	}
}

func buildWide() string {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 3000; i++ {
		switch i % 4 {
		case 0:
			sb.WriteString("<x><y/></x>")
		case 1:
			sb.WriteString("<x><y/><y/></x>")
		case 2:
			sb.WriteString("<y><x/></y>")
		default:
			sb.WriteString("<x/>")
		}
	}
	sb.WriteString("</r>")
	return sb.String()
}
