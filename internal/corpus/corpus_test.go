package corpus_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/saxml"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

type nullHandler struct{}

func (nullHandler) StartElement(string, []saxml.Attr) error { return nil }
func (nullHandler) EndElement(string) error                 { return nil }
func (nullHandler) Text([]byte) error                       { return nil }

func TestGeneratorsProduceWellFormedXML(t *testing.T) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(smallScale(c), 1)
		if len(doc) == 0 {
			t.Errorf("%s: empty document", c.Name)
			continue
		}
		if err := saxml.Parse(doc, nullHandler{}); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, c := range corpus.Catalog() {
		a := c.Generate(smallScale(c), 7)
		b := c.Generate(smallScale(c), 7)
		if string(a) != string(b) {
			t.Errorf("%s: generation not deterministic", c.Name)
		}
		d := c.Generate(smallScale(c), 8)
		if string(a) == string(d) {
			t.Errorf("%s: seed has no effect", c.Name)
		}
	}
}

// TestAllQueriesSelectSomething mirrors the paper's setup: "All queries
// were designed to select at least one node." Verified against both
// engines.
func TestAllQueriesSelectSomething(t *testing.T) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(smallScale(c), 1)
		for i, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, i+1, err)
			}
			inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, i+1, err)
			}
			res, err := engine.RunFrozen(dag.Freeze(inst), prog)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, i+1, err)
			}
			if res.SelectedTree == 0 {
				t.Errorf("%s Q%d selects nothing: %s", c.Name, i+1, q)
			}

			tree, err := baseline.Build(doc, prog.Strings)
			if err != nil {
				t.Fatalf("%s Q%d baseline: %v", c.Name, i+1, err)
			}
			want, err := baseline.Eval(tree, prog)
			if err != nil {
				t.Fatalf("%s Q%d baseline: %v", c.Name, i+1, err)
			}
			if got, wantN := res.SelectedTree, uint64(baseline.Count(want)); got != wantN {
				t.Errorf("%s Q%d: engine %d != baseline %d", c.Name, i+1, got, wantN)
			}
		}
	}
}

// TestCompressionBands checks that each corpus lands in its Figure 6
// regularity band: regular data compresses hard, TreeBank-like data does
// not.
func TestCompressionBands(t *testing.T) {
	bands := map[string]struct{ lo, hi float64 }{
		// Ratios |E_M(T)|/|E_T| with all tags (the "+" rows), with wide
		// tolerances — we check regularity class, not exact numbers.
		"SwissProt":   {0.005, 0.35},
		"DBLP":        {0.005, 0.30},
		"TreeBank":    {0.30, 1.0},
		"OMIM":        {0.005, 0.30},
		"XMark":       {0.005, 0.40},
		"Shakespeare": {0.01, 0.45},
		"Baseball":    {0.0005, 0.12},
		"TPC-D":       {0.0005, 0.12},
	}
	for _, c := range corpus.Catalog() {
		doc := c.Generate(c.DefaultScale, 1)
		inst, st, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ratio := float64(inst.NumEdges()) / float64(st.TreeVertices-1)
		b := bands[c.Name]
		if ratio < b.lo || ratio > b.hi {
			t.Errorf("%s: compression ratio %.4f outside band [%.4f, %.4f] (%d -> %d edges)",
				c.Name, ratio, b.lo, b.hi, st.TreeVertices-1, inst.NumEdges())
		}
	}
}

// TestTreeBankIsTheOutlier encodes the paper's qualitative finding: the
// random-grammar corpus compresses far worse than every record corpus.
func TestTreeBankIsTheOutlier(t *testing.T) {
	ratios := map[string]float64{}
	for _, c := range corpus.Catalog() {
		doc := c.Generate(c.DefaultScale, 1)
		inst, st, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			t.Fatal(err)
		}
		ratios[c.Name] = float64(inst.NumEdges()) / float64(st.TreeVertices-1)
	}
	for name, r := range ratios {
		if name == "TreeBank" {
			continue
		}
		if r >= ratios["TreeBank"] {
			t.Errorf("%s ratio %.4f >= TreeBank %.4f; TreeBank must be the outlier",
				name, r, ratios["TreeBank"])
		}
	}
}

func TestRelationalTable(t *testing.T) {
	doc := corpus.RelationalTable(100, 6)
	if err := saxml.Parse(doc, nullHandler{}); err != nil {
		t.Fatal(err)
	}
	inst, st, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		t.Fatal(err)
	}
	if st.TreeVertices != uint64(1+100*7) {
		t.Fatalf("tree vertices = %d", st.TreeVertices)
	}
	// doc + table + row + 6 distinct columns.
	if inst.NumVertices() != 9 {
		t.Fatalf("compressed vertices = %d, want 9\n%s", inst.NumVertices(), inst)
	}
}

func TestByName(t *testing.T) {
	if _, err := corpus.ByName("DBLP"); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// smallScale shrinks scales for fast unit testing while keeping planted
// query witnesses present.
func smallScale(c corpus.Corpus) int {
	switch c.Name {
	case "Shakespeare":
		return 3
	case "Baseball":
		return 2
	case "XMark":
		return 40
	default:
		if c.DefaultScale > 200 {
			return 200
		}
		return c.DefaultScale
	}
}
