// Package experiments drives the paper's evaluation (Section 5): it
// regenerates Figure 6 (compression table) and Figure 7 (parse and query
// performance table) on the synthetic corpora, plus the decompression-
// growth experiment behind Theorem 3.6 and the compressed-vs-uncompressed
// engine comparison of Section 6. Both cmd/xcbench and the root benchmark
// suite call into it, so printed tables and testing.B results always come
// from the same code.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// Fig6Row is one corpus row of Figure 6, in one tag mode.
type Fig6Row struct {
	Corpus       string
	AllTags      bool // false = "−" row (structure only), true = "+" row
	DocBytes     int
	TreeVertices uint64
	DagVertices  int
	DagEdges     int
	Ratio        float64 // |E_M(T)| / |E_T|
}

// Fig6 generates every corpus at sizeScale × its default scale and
// compresses it in both tag modes.
func Fig6(sizeScale float64, seed uint64) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, c := range corpus.Catalog() {
		doc := c.Generate(scaled(c.DefaultScale, sizeScale), seed)
		for _, all := range []bool{false, true} {
			mode := skeleton.TagsNone
			if all {
				mode = skeleton.TagsAll
			}
			inst, st, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: mode})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
			row := Fig6Row{
				Corpus:       c.Name,
				AllTags:      all,
				DocBytes:     len(doc),
				TreeVertices: st.TreeVertices,
				DagVertices:  inst.NumVertices(),
				DagEdges:     inst.NumEdges(),
			}
			if st.TreeVertices > 1 {
				row.Ratio = float64(inst.NumEdges()) / float64(st.TreeVertices-1)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig7Row is one (corpus, query) row of Figure 7.
type Fig7Row struct {
	Corpus string
	Query  int // 1..5
	Text   string

	ParseTime   time.Duration // col 1
	VertsBefore int           // col 2
	EdgesBefore int           // col 3
	EvalTime    time.Duration // col 4
	VertsAfter  int           // col 5
	EdgesAfter  int           // col 6
	SelectedDAG int           // col 7
	SelectedTre uint64        // col 8
}

// Fig7 runs Q1-Q5 on every corpus except TPC-D (excluded by the paper).
func Fig7(sizeScale float64, seed uint64) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, c := range corpus.Catalog() {
		if c.Name == "TPC-D" {
			continue
		}
		doc := c.Generate(scaled(c.DefaultScale, sizeScale), seed)
		for qi, q := range c.Queries {
			row, err := RunQuery(c.Name, qi+1, q, doc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RunQuery evaluates one query on one document, reporting a Figure 7 row.
func RunQuery(corpusName string, qnum int, query string, doc []byte) (Fig7Row, error) {
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return Fig7Row{}, fmt.Errorf("%s Q%d: %w", corpusName, qnum, err)
	}
	t0 := time.Now()
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		return Fig7Row{}, fmt.Errorf("%s Q%d: %w", corpusName, qnum, err)
	}
	parse := time.Since(t0)
	t1 := time.Now()
	res, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		return Fig7Row{}, fmt.Errorf("%s Q%d: %w", corpusName, qnum, err)
	}
	eval := time.Since(t1)
	return Fig7Row{
		Corpus:      corpusName,
		Query:       qnum,
		Text:        query,
		ParseTime:   parse,
		VertsBefore: res.VertsBefore,
		EdgesBefore: res.EdgesBefore,
		EvalTime:    eval,
		VertsAfter:  res.VertsAfter,
		EdgesAfter:  res.EdgesAfter,
		SelectedDAG: res.SelectedDAG,
		SelectedTre: res.SelectedTree,
	}, nil
}

// GrowthPoint is one measurement of the Theorem 3.6 experiment: how much a
// query of size ~k decompresses a maximally shared instance (a complete
// binary tree of uniform tag, which compresses to a chain).
type GrowthPoint struct {
	Steps       int
	Query       string
	VertsBefore int
	VertsAfter  int
	TreeSize    uint64
}

// DecompressionGrowth runs two query families against the compressed
// complete binary tree of the given depth (which has depth+1 vertices but
// 2^depth tree nodes: 2^depth - 1 elements plus the document root):
//
//   - benign: /*/*/.../* — plain downward chains. Every tree node at a
//     level shares one vertex and all its copies need identical
//     selections, so NO decompression occurs: growth stays 1.0x. This is
//     the "in real life we expect no extreme decompression" case.
//   - adversarial: //*[c_1 and ... and c_k] with
//     c_i = parent::*/.../parent::*[preceding-sibling::*] (i parents) —
//     each condition tags a node with the i-th bit of its ancestor
//     sibling-position path, so nodes need 2^k distinct selection
//     combinations and the instance provably grows ~2^k, while remaining
//     bounded by the uncompressed tree size (Theorem 3.6: O(2^|Q| * |I|),
//     never beyond O(|Q| * |T(I)|)).
func DecompressionGrowth(depth, maxSteps int) (benign, adversarial []GrowthPoint, err error) {
	doc := uniformBinaryDoc(depth)
	for k := 1; k <= maxSteps; k++ {
		q := "/" + strings.Repeat("*/", k-1) + "*"
		p, err := growthPoint(doc, k, q)
		if err != nil {
			return nil, nil, err
		}
		benign = append(benign, p)

		var conds []string
		for i := 1; i <= k; i++ {
			conds = append(conds, strings.Repeat("parent::*/", i-1)+"parent::*[preceding-sibling::*]")
		}
		q = "//*[" + strings.Join(conds, " and ") + "]"
		p, err = growthPoint(doc, k, q)
		if err != nil {
			return nil, nil, err
		}
		adversarial = append(adversarial, p)
	}
	return benign, adversarial, nil
}

func growthPoint(doc []byte, k int, query string) (GrowthPoint, error) {
	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return GrowthPoint{}, err
	}
	inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
	if err != nil {
		return GrowthPoint{}, err
	}
	res, err := engine.RunFrozen(dag.Freeze(inst), prog)
	if err != nil {
		return GrowthPoint{}, err
	}
	grown, _ := res.Materialize()
	return GrowthPoint{
		Steps:       k,
		Query:       query,
		VertsBefore: res.VertsBefore,
		VertsAfter:  res.VertsAfter,
		TreeSize:    grown.TreeSize(),
	}, nil
}

// uniformBinaryDoc renders a complete binary tree of uniform tag with
// `depth` element levels; its skeleton compresses to a chain of depth+1
// vertices (one per level plus the document root).
func uniformBinaryDoc(depth int) []byte {
	var sb strings.Builder
	var emit func(level int)
	emit = func(level int) {
		sb.WriteString("<n>")
		if level+1 < depth {
			emit(level + 1)
			emit(level + 1)
		}
		sb.WriteString("</n>")
	}
	emit(0)
	return []byte(sb.String())
}

// VsBaselineRow compares the compressed engine against the uncompressed
// pointer-tree evaluator on the same (corpus, query).
type VsBaselineRow struct {
	Corpus       string
	Query        int
	EngineEval   time.Duration
	BaselineEval time.Duration
	Selected     uint64
}

// VsBaseline measures pure evaluation time (excluding parsing) of both
// engines across the catalog.
func VsBaseline(sizeScale float64, seed uint64) ([]VsBaselineRow, error) {
	var rows []VsBaselineRow
	for _, c := range corpus.Catalog() {
		if c.Name == "TPC-D" {
			continue
		}
		doc := c.Generate(scaled(c.DefaultScale, sizeScale), seed)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				return nil, err
			}
			inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			res, err := engine.RunFrozen(dag.Freeze(inst), prog)
			if err != nil {
				return nil, err
			}
			engineEval := time.Since(t0)

			tree, err := baseline.Build(doc, prog.Strings)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			sel, err := baseline.Eval(tree, prog)
			if err != nil {
				return nil, err
			}
			baseEval := time.Since(t1)
			if res.SelectedTree != uint64(baseline.Count(sel)) {
				return nil, fmt.Errorf("%s Q%d: engine %d != baseline %d",
					c.Name, qi+1, res.SelectedTree, baseline.Count(sel))
			}
			rows = append(rows, VsBaselineRow{
				Corpus: c.Name, Query: qi + 1,
				EngineEval: engineEval, BaselineEval: baseEval,
				Selected: res.SelectedTree,
			})
		}
	}
	return rows, nil
}

// RelationalPoint is one measurement of the introduction's O(C*R) vs
// O(C + log R) claim.
type RelationalPoint struct {
	Rows, Cols   int
	TreeVertices uint64
	DagVertices  int
	DagEdges     int
}

// RelationalSweep compresses R x C tables over a row sweep.
func RelationalSweep(rows []int, cols int) ([]RelationalPoint, error) {
	var out []RelationalPoint
	for _, r := range rows {
		doc := corpus.RelationalTable(r, cols)
		inst, st, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			return nil, err
		}
		out = append(out, RelationalPoint{
			Rows: r, Cols: cols,
			TreeVertices: st.TreeVertices,
			DagVertices:  inst.NumVertices(),
			DagEdges:     inst.NumEdges(),
		})
	}
	return out, nil
}

// PrintFig6 renders rows in the layout of Figure 6.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintf(w, "%-12s %10s %12s %12s %12s %8s %s\n",
		"corpus", "bytes", "|V_T|", "|V_M(T)|", "|E_M(T)|", "ratio", "tags")
	for _, r := range rows {
		sign := "-"
		if r.AllTags {
			sign = "+"
		}
		fmt.Fprintf(w, "%-12s %10d %12d %12d %12d %7.1f%% %s\n",
			r.Corpus, r.DocBytes, r.TreeVertices, r.DagVertices, r.DagEdges, 100*r.Ratio, sign)
	}
}

// PrintFig7 renders rows in the layout of Figure 7.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "%-12s %3s %12s %9s %9s %12s %9s %9s %9s %10s\n",
		"corpus", "Q", "parse", "bef.|V|", "bef.|E|", "query", "aft.|V|", "aft.|E|", "sel(dag)", "sel(tree)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %3d %12v %9d %9d %12v %9d %9d %9d %10d\n",
			r.Corpus, r.Query, r.ParseTime.Round(time.Microsecond),
			r.VertsBefore, r.EdgesBefore,
			r.EvalTime.Round(time.Microsecond),
			r.VertsAfter, r.EdgesAfter, r.SelectedDAG, r.SelectedTre)
	}
}

// CheckFig7Invariants verifies the qualitative claims of the paper on a
// batch of Figure 7 rows and returns a list of violations (empty = all
// hold). Used by tests and by cmd/xcbench -check.
func CheckFig7Invariants(rows []Fig7Row) []string {
	var bad []string
	for _, r := range rows {
		if r.Query == 1 {
			if r.VertsAfter != r.VertsBefore || r.EdgesAfter != r.EdgesBefore {
				bad = append(bad, fmt.Sprintf("%s Q1 decompressed (%d/%d -> %d/%d)",
					r.Corpus, r.VertsBefore, r.EdgesBefore, r.VertsAfter, r.EdgesAfter))
			}
			if r.SelectedDAG != 1 || r.SelectedTre != 1 {
				bad = append(bad, fmt.Sprintf("%s Q1 selected %d/%d, want 1/1", r.Corpus, r.SelectedDAG, r.SelectedTre))
			}
		}
		if r.SelectedTre == 0 {
			bad = append(bad, fmt.Sprintf("%s Q%d selected nothing", r.Corpus, r.Query))
		}
		if uint64(r.SelectedDAG) > r.SelectedTre {
			bad = append(bad, fmt.Sprintf("%s Q%d dag count exceeds tree count", r.Corpus, r.Query))
		}
		if r.VertsAfter < r.VertsBefore || r.EdgesAfter < r.EdgesBefore {
			bad = append(bad, fmt.Sprintf("%s Q%d instance shrank", r.Corpus, r.Query))
		}
	}
	return bad
}

func scaled(base int, f float64) int {
	n := int(float64(base) * f)
	if n < 1 {
		n = 1
	}
	return n
}
