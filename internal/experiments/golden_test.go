package experiments_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

const paperNumbersGolden = "testdata/paper_numbers.golden"

// renderPaperNumbers prints every deterministic count behind the paper's
// evaluation: the Figure 6 compression table, the Figure 7 size and
// selection columns (timings dropped), the Theorem 3.6 growth sweep and the
// introduction's relational sweep, at fixed scales and seed.
func renderPaperNumbers(t *testing.T) string {
	t.Helper()
	var b strings.Builder

	fig6, err := experiments.Fig6(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# Fig6(0.2, 1): corpus tags bytes |V_T| |V_M(T)| |E_M(T)| ratio")
	for _, r := range fig6 {
		sign := "-"
		if r.AllTags {
			sign = "+"
		}
		fmt.Fprintf(&b, "%s %s %d %d %d %d %.6f\n",
			r.Corpus, sign, r.DocBytes, r.TreeVertices, r.DagVertices, r.DagEdges, r.Ratio)
	}

	fig7, err := experiments.Fig7(0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# Fig7(0.15, 1): corpus Q bef.|V| bef.|E| aft.|V| aft.|E| sel(dag) sel(tree) query")
	for _, r := range fig7 {
		fmt.Fprintf(&b, "%s Q%d %d %d %d %d %d %d %s\n",
			r.Corpus, r.Query, r.VertsBefore, r.EdgesBefore, r.VertsAfter, r.EdgesAfter,
			r.SelectedDAG, r.SelectedTre, r.Text)
	}

	benign, adversarial, err := experiments.DecompressionGrowth(14, 6)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# DecompressionGrowth(14, 6): kind k verts-before verts-after tree-size query")
	for _, sweep := range []struct {
		kind string
		pts  []experiments.GrowthPoint
	}{{"benign", benign}, {"adversarial", adversarial}} {
		for _, p := range sweep.pts {
			fmt.Fprintf(&b, "%s %d %d %d %d %s\n",
				sweep.kind, p.Steps, p.VertsBefore, p.VertsAfter, p.TreeSize, p.Query)
		}
	}

	rel, err := experiments.RelationalSweep([]int{10, 100, 1000}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, "# RelationalSweep([10 100 1000], 8): rows cols tree-verts dag-verts dag-edges")
	for _, p := range rel {
		fmt.Fprintf(&b, "%d %d %d %d %d\n", p.Rows, p.Cols, p.TreeVertices, p.DagVertices, p.DagEdges)
	}
	return b.String()
}

// TestPaperNumbersGolden pins the paper-level numbers exactly. The bands
// of TestFig6Bands and TestFig7Invariants say the shape is right; this
// says no count moved — in particular the Figure 7 decompression sizes and
// selected-DAG counts, which depend on every operator of the evaluator.
func TestPaperNumbersGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(paperNumbersGolden))
	if err != nil {
		t.Fatal(err)
	}
	got := renderPaperNumbers(t)
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", paperNumbersGolden, i+1, g, w)
		}
	}
}
