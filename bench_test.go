// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation as testing.B benchmarks (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured numbers):
//
//	BenchmarkFig6Compression      Figure 6  — compression per corpus
//	BenchmarkFig7Queries          Figure 7  — parse + eval per corpus/query
//	BenchmarkFigure5              Figure 5  — queries on the compressed binary tree
//	BenchmarkDecompressionGrowth  Thm 3.6   — chained downward steps
//	BenchmarkUpwardOnly           Cor 3.7   — tree-pattern queries, no decompression
//	BenchmarkRelationalCompression Intro     — R x C table sweep
//	BenchmarkCompressedVsBaseline Section 6 — engine vs uncompressed tree
//	BenchmarkAblation*            design choices called out in DESIGN.md
package repro

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/skeleton"
	"repro/internal/store"
	"repro/internal/xpath"
)

// benchScale shrinks the corpora so the full suite completes quickly; the
// shapes under study (ratios, growth factors, who-wins) are scale-stable.
const benchScale = 0.25

const benchSeed = 1

// BenchmarkFig6Compression measures skeleton compression per corpus in
// both tag modes, reporting the paper's ratio |E_M(T)|/|E_T| as a metric.
func BenchmarkFig6Compression(b *testing.B) {
	for _, c := range corpus.Catalog() {
		doc := c.Generate(scaled(c.DefaultScale), benchSeed)
		for _, mode := range []struct {
			m    skeleton.TagMode
			name string
		}{{skeleton.TagsNone, "tags-"}, {skeleton.TagsAll, "tags+"}} {
			b.Run(c.Name+"/"+mode.name, func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				var ratio float64
				for i := 0; i < b.N; i++ {
					inst, st, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: mode.m})
					if err != nil {
						b.Fatal(err)
					}
					ratio = float64(inst.NumEdges()) / float64(st.TreeVertices-1)
				}
				b.ReportMetric(100*ratio, "ratio%")
			})
		}
	}
}

// BenchmarkFig7Queries measures, per (corpus, query), the two phases of
// Figure 7 separately: parse+compress (column 1) and pure evaluation
// (column 4), with the selected-node counts as metrics (columns 7-8).
func BenchmarkFig7Queries(b *testing.B) {
	for _, c := range corpus.Catalog() {
		if c.Name == "TPC-D" {
			continue
		}
		doc := c.Generate(scaled(c.DefaultScale), benchSeed)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				b.Fatal(err)
			}
			opts := skeleton.Options{Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings}

			b.Run(fmt.Sprintf("%s/Q%d/parse", c.Name, qi+1), func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				for i := 0; i < b.N; i++ {
					if _, _, err := skeleton.BuildCompressed(doc, opts); err != nil {
						b.Fatal(err)
					}
				}
			})

			b.Run(fmt.Sprintf("%s/Q%d/eval", c.Name, qi+1), func(b *testing.B) {
				master, _, err := skeleton.BuildCompressed(doc, opts)
				if err != nil {
					b.Fatal(err)
				}
				f := dag.Freeze(master)
				var res *engine.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err = engine.RunFrozen(f, prog)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.SelectedDAG), "sel(dag)")
				b.ReportMetric(float64(res.SelectedTree), "sel(tree)")
				b.ReportMetric(float64(res.VertsAfter-res.VertsBefore), "decompressed")
			})
		}
	}
}

// BenchmarkFigure5 runs the Figure 5 queries on the optimally compressed
// complete binary tree of depth 5.
func BenchmarkFigure5(b *testing.B) {
	var build func(level int) string
	build = func(level int) string {
		tag := "a"
		if level%2 == 1 {
			tag = "b"
		}
		if level == 4 {
			return "<" + tag + "/>"
		}
		sub := build(level + 1)
		return "<" + tag + ">" + sub + sub + "</" + tag + ">"
	}
	doc := []byte(build(0))
	for _, q := range []string{
		`//a`, `//a/b`, `/a`, `/a/a`, `/a/a/b`, `/*`, `/*/a`, `/*/a/following::*`,
	} {
		prog, err := xpath.CompileQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		master, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
			Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
		})
		if err != nil {
			b.Fatal(err)
		}
		f := dag.Freeze(master)
		b.Run(q, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunFrozen(f, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompressionGrowth measures the Theorem 3.6 shape on a
// compressed complete binary tree: benign downward chains cause no
// decompression, while k independent ancestor sibling-position conditions
// grow the instance ~2^k-fold — yet stay bounded by the uncompressed tree.
func BenchmarkDecompressionGrowth(b *testing.B) {
	for _, k := range []int{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("steps=%d", k), func(b *testing.B) {
			var benign, adv []experiments.GrowthPoint
			for i := 0; i < b.N; i++ {
				var err error
				benign, adv, err = experiments.DecompressionGrowth(16, k)
				if err != nil {
					b.Fatal(err)
				}
			}
			lb, la := benign[len(benign)-1], adv[len(adv)-1]
			b.ReportMetric(float64(lb.VertsAfter)/float64(lb.VertsBefore), "benign-x")
			b.ReportMetric(float64(la.VertsAfter)/float64(la.VertsBefore), "adversarial-x")
		})
	}
}

// BenchmarkUpwardOnly exercises Corollary 3.7: tree-pattern (Q1-style)
// queries run on the compressed instance with zero decompression.
func BenchmarkUpwardOnly(b *testing.B) {
	c, err := corpus.ByName("SwissProt")
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Generate(scaled(c.DefaultScale), benchSeed)
	prog, err := xpath.CompileQuery(c.Queries[0])
	if err != nil {
		b.Fatal(err)
	}
	master, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := dag.Freeze(master)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.RunFrozen(f, prog)
		if err != nil {
			b.Fatal(err)
		}
		if res.VertsAfter != res.VertsBefore {
			b.Fatal("upward-only query decompressed the instance")
		}
	}
}

// BenchmarkRelationalCompression sweeps the introduction's R x C table:
// compressed size must not grow with R.
func BenchmarkRelationalCompression(b *testing.B) {
	for _, rows := range []int{100, 1000, 10000, 100000} {
		doc := corpus.RelationalTable(rows, 8)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			var edges int
			for i := 0; i < b.N; i++ {
				inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{Mode: skeleton.TagsAll})
				if err != nil {
					b.Fatal(err)
				}
				edges = inst.NumEdges()
			}
			b.ReportMetric(float64(edges), "dagEdges")
		})
	}
}

// BenchmarkCompressedVsBaseline compares pure evaluation time of the
// compressed-instance engine against the uncompressed pointer-tree
// evaluator (Section 6: "such engines have to repetitively re-compute the
// same results on subtrees that are shared in our compressed instances").
func BenchmarkCompressedVsBaseline(b *testing.B) {
	for _, name := range []string{"SwissProt", "DBLP", "TreeBank", "Baseball"} {
		c, err := corpus.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		doc := c.Generate(scaled(c.DefaultScale), benchSeed)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				b.Fatal(err)
			}
			master, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				b.Fatal(err)
			}
			f := dag.Freeze(master)
			tree, err := baseline.Build(doc, prog.Strings)
			if err != nil {
				b.Fatal(err)
			}

			b.Run(fmt.Sprintf("%s/Q%d/compressed", name, qi+1), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := engine.RunFrozen(f, prog); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/Q%d/baseline", name, qi+1), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := baseline.Eval(tree, prog); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationOnePassVsPostCompress compares the two compression
// strategies DESIGN.md calls out: hash-consing during the parse (the
// paper's one-pass algorithm) versus building the full tree first and
// compressing afterwards.
func BenchmarkAblationOnePassVsPostCompress(b *testing.B) {
	c, err := corpus.ByName("SwissProt")
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Generate(scaled(c.DefaultScale), benchSeed)
	opts := skeleton.Options{Mode: skeleton.TagsAll}

	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, _, err := skeleton.BuildCompressed(doc, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("post-compress", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			tree, _, err := skeleton.BuildTree(doc, opts)
			if err != nil {
				b.Fatal(err)
			}
			dag.Compress(tree)
		}
	})
}

// BenchmarkAblationSharedSubtreeReuse measures the "compute once per
// shared subtree" effect directly: the same algebra on the compressed DAG
// versus on the fully uncompressed tree instance.
func BenchmarkAblationSharedSubtreeReuse(b *testing.B) {
	c, err := corpus.ByName("Baseball")
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Generate(scaled(c.DefaultScale)+2, benchSeed)
	prog, err := xpath.CompileQuery(c.Queries[1]) // Q2: plain downward path
	if err != nil {
		b.Fatal(err)
	}
	opts := skeleton.Options{Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings}

	compressed, _, err := skeleton.BuildCompressed(doc, opts)
	if err != nil {
		b.Fatal(err)
	}
	uncompressed, _, err := skeleton.BuildTree(doc, opts)
	if err != nil {
		b.Fatal(err)
	}

	for _, arm := range []struct {
		name string
		f    *dag.Frozen
	}{{"dag", dag.Freeze(compressed)}, {"tree", dag.Freeze(uncompressed)}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunFrozen(arm.f, prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMinimizers measures computing M(I) from the
// uncompressed tree with the paper's one-table hash-consing
// (Proposition 2.6).
func BenchmarkAblationMinimizers(b *testing.B) {
	for _, name := range []string{"SwissProt", "TreeBank"} {
		c, err := corpus.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		doc := c.Generate(scaled(c.DefaultScale), benchSeed)
		tree, _, err := skeleton.BuildTree(doc, skeleton.Options{Mode: skeleton.TagsAll})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/hash-consing", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dag.Compress(tree)
			}
		})
	}
}

// BenchmarkAblationRecompress measures re-minimisation after query
// evaluation — the operation Section 3.3 predicts "will rarely pay off".
func BenchmarkAblationRecompress(b *testing.B) {
	c, err := corpus.ByName("XMark")
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Generate(scaled(c.DefaultScale), benchSeed)
	prog, err := xpath.CompileQuery(c.Queries[1])
	if err != nil {
		b.Fatal(err)
	}
	master, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
		Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.RunFrozen(dag.Freeze(master), prog)
	if err != nil {
		b.Fatal(err)
	}
	grown, _ := res.Materialize()
	b.Run("recompress", func(b *testing.B) {
		var shrunk int
		for i := 0; i < b.N; i++ {
			shrunk = dag.Compress(grown).NumVertices()
		}
		b.ReportMetric(float64(grown.NumVertices()-shrunk), "vertsSaved")
	})
}

// BenchmarkArchive measures the storage layer: splitting a document into
// skeleton + containers, binary encoding, decoding, and reconstruction.
func BenchmarkArchive(b *testing.B) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		b.Fatal(err)
	}
	doc := c.Generate(scaled(c.DefaultScale), benchSeed)

	b.Run("split", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := container.Split(doc); err != nil {
				b.Fatal(err)
			}
		}
	})

	arch, err := container.Split(doc)
	if err != nil {
		b.Fatal(err)
	}
	var packed bytes.Buffer
	if err := codec.EncodeArchive(&packed, arch); err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := codec.EncodeArchive(&buf, arch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*float64(packed.Len())/float64(len(doc)), "packed%")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := codec.DecodeArchive(bytes.NewReader(packed.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reconstruct", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := arch.Reconstruct(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedVsReparse compares the Section 4 evaluation modes: the
// prototype's reparse-per-query versus the cached instance merged with
// per-query string conditions via common extensions.
func BenchmarkPreparedVsReparse(b *testing.B) {
	c, err := corpus.ByName("SwissProt")
	if err != nil {
		b.Fatal(err)
	}
	docBytes := c.Generate(scaled(c.DefaultScale), benchSeed)
	doc := core.Load(docBytes)
	prep, err := doc.Prepare()
	if err != nil {
		b.Fatal(err)
	}
	for qi, q := range c.Queries {
		prog, err := core.Compile(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%d/reparse", qi+1), func(b *testing.B) {
			b.SetBytes(int64(len(docBytes)))
			for i := 0; i < b.N; i++ {
				if _, err := doc.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%d/prepared", qi+1), func(b *testing.B) {
			b.SetBytes(int64(len(docBytes)))
			for i := 0; i < b.N; i++ {
				if _, err := prep.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResultPaths measures decoding a selection back to tree
// addresses (Figure 7 column 8's traversal).
func BenchmarkResultPaths(b *testing.B) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		b.Fatal(err)
	}
	doc := core.Load(c.Generate(scaled(c.DefaultScale), benchSeed))
	res, err := doc.Query(c.Queries[1])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := res.Paths(1 << 20)
		if uint64(len(paths)) != res.SelectedTree {
			b.Fatalf("paths = %d, want %d", len(paths), res.SelectedTree)
		}
	}
}

// BenchmarkStoreQuery measures the archive-store serving path on the
// largest generated corpus (SwissProt): every corpus query fanned over a
// packed store with warm caches versus parse-per-query evaluation of the
// same XML at the same parallelism. The acceptance target is warm serving
// >= 5x faster than re-parsing for every query — tag-only queries run on
// the cached frozen instance, and string-condition queries hit the
// prepared merged-instance memo, so neither touches XML (or even the
// containers).
func BenchmarkStoreQuery(b *testing.B) {
	c, err := corpus.ByName("SwissProt")
	if err != nil {
		b.Fatal(err)
	}
	const docs = 4
	dir := b.TempDir()
	pool := core.NewPool(0)
	var totalBytes int64
	for i := 0; i < docs; i++ {
		doc := c.Generate(scaled(c.DefaultScale), benchSeed+uint64(i))
		totalBytes += int64(len(doc))
		pool.Add(fmt.Sprintf("doc%d", i), doc)
		a, err := container.Split(doc)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := codec.EncodeArchive(&buf, a); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("doc%d%s", i, store.Ext)), buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for qi, q := range c.Queries {
		if _, err := s.QueryAllCtx(context.Background(), q); err != nil { // warm caches
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%d/reparse", qi+1), func(b *testing.B) {
			b.SetBytes(totalBytes)
			for i := 0; i < b.N; i++ {
				if _, err := pool.QueryAll(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%d/store", qi+1), func(b *testing.B) {
			b.SetBytes(totalBytes)
			for i := 0; i < b.N; i++ {
				if _, err := s.QueryAllCtx(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func scaled(base int) int {
	n := int(float64(base) * benchScale)
	if n < 1 {
		n = 1
	}
	return n
}
