// xcbench regenerates the paper's evaluation tables end to end on the
// synthetic corpora:
//
//	xcbench -fig6            # Figure 6: compression table
//	xcbench -fig7            # Figure 7: parse + query performance table
//	xcbench -growth          # Theorem 3.6: decompression growth sweep
//	xcbench -vs              # Section 6: compressed vs uncompressed engine
//	xcbench -relational      # Introduction: O(C*R) -> O(C+log R) sweep
//	xcbench -all             # everything
//
// -scale multiplies every corpus's default size and -seed picks the
// corpus generation seed. -check verifies the paper's qualitative
// invariants on the Figure 7 rows and exits non-zero on violation; -vs
// always cross-checks every selected count against the uncompressed
// baseline evaluator and fails on a mismatch.
//
// The serving system (store, pruning, planning, ingest, cold tier,
// cluster) is measured end to end by bench/run.sh, which drives a real
// xcserve over HTTP and diffs the run against bench/baseline.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	var (
		fig6       = flag.Bool("fig6", false, "run the Figure 6 compression experiment")
		fig7       = flag.Bool("fig7", false, "run the Figure 7 query experiment")
		growth     = flag.Bool("growth", false, "run the decompression growth experiment (Theorem 3.6)")
		vs         = flag.Bool("vs", false, "compare compressed engine vs uncompressed baseline (Section 6)")
		relational = flag.Bool("relational", false, "run the relational-table compression sweep (Introduction)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.Float64("scale", 1.0, "corpus size multiplier")
		seed       = flag.Uint64("seed", 1, "corpus generation seed")
		check      = flag.Bool("check", false, "verify the paper's qualitative invariants (with -fig7)")
	)
	flag.Parse()
	if *all {
		*fig6, *fig7, *growth, *vs, *relational = true, true, true, true, true
	}
	if !*fig6 && !*fig7 && !*growth && !*vs && !*relational {
		flag.Usage()
		os.Exit(2)
	}

	if *fig6 {
		rows, err := experiments.Fig6(*scale, *seed)
		cli.Fatal(err)
		fmt.Println("=== Figure 6: degree of compression (tags ignored '-', all tags '+') ===")
		experiments.PrintFig6(os.Stdout, rows)
		fmt.Println()
	}

	if *fig7 {
		rows, err := experiments.Fig7(*scale, *seed)
		cli.Fatal(err)
		fmt.Println("=== Figure 7: parsing and query evaluation performance ===")
		experiments.PrintFig7(os.Stdout, rows)
		fmt.Println()
		if *check {
			if bad := experiments.CheckFig7Invariants(rows); len(bad) > 0 {
				for _, b := range bad {
					fmt.Fprintln(os.Stderr, "INVARIANT VIOLATED:", b)
				}
				os.Exit(1)
			}
			fmt.Println("all Figure 7 invariants hold")
			fmt.Println()
		}
	}

	if *growth {
		const depth = 16
		benign, adversarial, err := experiments.DecompressionGrowth(depth, 10)
		cli.Fatal(err)
		fmt.Printf("=== Theorem 3.6: decompression growth on a compressed complete binary tree (depth %d, %d vertices, %d tree nodes) ===\n",
			depth, benign[0].VertsBefore, benign[0].TreeSize)
		fmt.Println("-- benign: plain downward chains /*/*/.../* (no decompression expected)")
		printGrowth(benign)
		fmt.Println("-- adversarial: k independent ancestor sibling-position conditions (~2^k growth, bounded by |T|)")
		printGrowth(adversarial)
		fmt.Println()
	}

	if *vs {
		rows, err := experiments.VsBaseline(*scale, *seed)
		cli.Fatal(err)
		fmt.Println("=== Section 6: pure evaluation time, compressed instance vs uncompressed tree ===")
		fmt.Printf("%-12s %3s %14s %14s %10s %10s\n", "corpus", "Q", "compressed", "uncompressed", "speedup", "selected")
		for _, r := range rows {
			fmt.Printf("%-12s %3d %14v %14v %9.2fx %10d\n",
				r.Corpus, r.Query,
				r.EngineEval.Round(time.Microsecond), r.BaselineEval.Round(time.Microsecond),
				float64(r.BaselineEval)/float64(r.EngineEval), r.Selected)
		}
		fmt.Println()
	}

	if *relational {
		pts, err := experiments.RelationalSweep([]int{10, 100, 1000, 10000, 100000}, 8)
		cli.Fatal(err)
		fmt.Println("=== Introduction: R x 8 relational table, O(C*R) tree vs O(C) compressed edges ===")
		fmt.Printf("%8s %6s %14s %14s %14s\n", "rows", "cols", "tree verts", "dag verts", "dag edges")
		for _, p := range pts {
			fmt.Printf("%8d %6d %14d %14d %14d\n", p.Rows, p.Cols, p.TreeVertices, p.DagVertices, p.DagEdges)
		}
	}
}

func printGrowth(pts []experiments.GrowthPoint) {
	fmt.Printf("%6s %12s %12s %14s %10s\n", "k", "verts before", "verts after", "tree size", "growth")
	for _, p := range pts {
		fmt.Printf("%6d %12d %12d %14d %9.1fx\n",
			p.Steps, p.VertsBefore, p.VertsAfter, p.TreeSize,
			float64(p.VertsAfter)/float64(p.VertsBefore))
	}
}
