// xcbench regenerates the paper's evaluation tables end to end on the
// synthetic corpora:
//
//	xcbench -fig6            # Figure 6: compression table
//	xcbench -fig7            # Figure 7: parse + query performance table
//	xcbench -growth          # Theorem 3.6: decompression growth sweep
//	xcbench -vs              # Section 6: compressed vs uncompressed engine
//	xcbench -relational      # Introduction: O(C*R) -> O(C+log R) sweep
//	xcbench -storebench      # archive-store serving vs parse-per-query
//	xcbench -prunebench      # catalog pruning: mixed store, synopsis index on vs off
//	xcbench -planbench       # query planning: synopsis-direct answering vs overlay evaluation
//	xcbench -ingestbench     # ingest-while-querying: write throughput vs latency
//	xcbench -bundlebench     # cold tier: bundle-packed vs loose small-doc catalogs
//	xcbench -obsbench        # observability: instrumented vs -no-metrics warm serving
//	xcbench -faultbench      # fault tolerance: scrub throughput, corruption recovery
//	xcbench -clusterbench    # clustered serving: nodes x replication-factor scatter-gather sweep
//	xcbench -all             # everything
//	xcbench -compare old.json new.json   # delta two -json trajectory files
//
// -scale multiplies every corpus's default size; -check verifies the
// paper's qualitative invariants on the Figure 7 rows and exits non-zero
// on violation. -storebench packs -docs generated documents of -corpus
// into a temporary archive directory and compares warm cached-store
// serving (internal/store) against parse-per-query evaluation, sweeping
// worker counts 1..-workers and cache budgets (full corpus and one
// quarter of it).
// -ingestbench streams -docs documents through the write path
// (internal/ingest) while a fixed query loop runs, reporting write
// docs/sec, idle vs busy query latency percentiles, and WAL crash-
// recovery time. -bundlebench builds catalogs of -bundledocs small
// documents twice — loose .xca files and bundle-packed — and compares
// open wall, warm query wall, and synopsis-pruned query wall between
// the tiers (results verified equal); with -check it enforces that the
// bundled tier is no worse than loose within a slack factor. -prunebench builds one store from -docs documents each
// of four disjoint-vocabulary corpora and fans each corpus's root-path
// query over it with the path-synopsis index on and off, reporting the
// prune ratio and the pruned-vs-full speedup (results verified equal).
// -planbench builds the same mixed store and fans each corpus's exists-
// and count-shaped queries over it with the cost-based planner on and
// off, reporting synopsis-direct coverage, archive decodes during the
// count-only loop (must be zero) and the planned-vs-overlay speedup
// (results verified equal); with -check it enforces those invariants.
// -obsbench builds the same mixed store twice — metrics registry live
// and store.Options.DisableMetrics — and times each corpus's structural
// query over both warm stores; with -check it enforces the <= 5%
// instrumentation-overhead budget (skipped below 100µs of baseline
// wall, where the measurement is noise). -faultbench builds the mixed
// store, times a clean scrub pass (store.Scrub, full CRC verification,
// in MB/s), then flips one bit in ~10% of the archives and times
// reopen-plus-scrub recovery; with -check it enforces exact quarantine:
// every corrupted document quarantined, every healthy one still served.
//
// -json replaces every table with machine-readable output: one JSON
// object per experiment, {"experiment": NAME, "rows": [...]}, on stdout
// — the format CI stores as BENCH_*.json trajectory files.
//
// -compare diffs two such trajectory files field by field, prints a
// delta table, and exits non-zero (3) when any timing/allocation metric
// regressed — or any speedup/throughput metric dropped — by more than
// -maxregress percent (default 25). CI's perf-smoke job runs it against
// the uploaded BENCH_*.json artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
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
		storebench = flag.Bool("storebench", false, "run the archive-store serving sweep")
		prunebench = flag.Bool("prunebench", false, "run the mixed-corpus catalog-pruning sweep")
		planbench  = flag.Bool("planbench", false, "run the mixed-corpus query-planning sweep (synopsis-direct vs overlay)")
		ingbench   = flag.Bool("ingestbench", false, "run the ingest-while-querying sweep")
		bundbench  = flag.Bool("bundlebench", false, "run the bundle-packed vs loose cold-tier sweep")
		obsbench   = flag.Bool("obsbench", false, "run the instrumentation-overhead sweep (metrics on vs off)")
		faultbench = flag.Bool("faultbench", false, "run the corruption-recovery sweep (scrub throughput, quarantine recovery)")
		clustbench = flag.Bool("clusterbench", false, "run the clustered-serving sweep (nodes x replication factor)")
		clustNodes = flag.Int("clusternodes", 3, "maximum node count for -clusterbench")
		clustRound = flag.Int("clusterrounds", 3, "timed rounds over the query set for -clusterbench")
		bundleDocs = flag.String("bundledocs", "1000,10000", "comma-separated catalog sizes for -bundlebench")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.Float64("scale", 1.0, "corpus size multiplier")
		seed       = flag.Uint64("seed", 1, "corpus generation seed")
		check      = flag.Bool("check", false, "verify the paper's qualitative invariants (with -fig7)")
		corpusName = flag.String("corpus", "SwissProt", "corpus for the store/ingest sweeps")
		docs       = flag.Int("docs", 8, "documents in the store/ingest sweeps")
		workers    = flag.Int("workers", 8, "maximum worker count in the sweeps (doubling from 1)")
		jsonOut    = flag.Bool("json", false, "emit one JSON object per experiment instead of tables")
		compare    = flag.Bool("compare", false, "compare two -json trajectory files: xcbench -compare old.json new.json")
		maxRegress = flag.Float64("maxregress", 25, "with -compare: max tolerated regression, percent")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: xcbench -compare [-maxregress N] old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), *maxRegress))
	}
	if *all {
		*fig6, *fig7, *growth, *vs, *relational, *storebench, *prunebench, *planbench, *ingbench, *bundbench, *obsbench, *faultbench, *clustbench = true, true, true, true, true, true, true, true, true, true, true, true, true
	}
	if !*fig6 && !*fig7 && !*growth && !*vs && !*relational && !*storebench && !*prunebench && !*planbench && !*ingbench && !*bundbench && !*obsbench && !*faultbench && !*clustbench {
		flag.Usage()
		os.Exit(2)
	}

	// emit prints rows as one JSON object under -json, or runs the
	// human-readable renderer.
	emit := func(name string, rows any, human func()) {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			if err := enc.Encode(map[string]any{"experiment": name, "rows": rows}); err != nil {
				cli.Fatal(err)
			}
			return
		}
		human()
	}

	var counts []int
	for w := 1; w <= *workers; w *= 2 {
		counts = append(counts, w)
	}

	if *fig6 {
		rows, err := experiments.Fig6(*scale, *seed)
		cli.Fatal(err)
		emit("fig6", rows, func() {
			fmt.Println("=== Figure 6: degree of compression (tags ignored '-', all tags '+') ===")
			experiments.PrintFig6(os.Stdout, rows)
			fmt.Println()
		})
	}

	if *fig7 {
		rows, err := experiments.Fig7(*scale, *seed)
		cli.Fatal(err)
		emit("fig7", rows, func() {
			fmt.Println("=== Figure 7: parsing and query evaluation performance ===")
			experiments.PrintFig7(os.Stdout, rows)
			fmt.Println()
		})
		if *check {
			if bad := experiments.CheckFig7Invariants(rows); len(bad) > 0 {
				for _, b := range bad {
					fmt.Fprintln(os.Stderr, "INVARIANT VIOLATED:", b)
				}
				os.Exit(1)
			}
			if !*jsonOut {
				fmt.Println("all Figure 7 invariants hold")
				fmt.Println()
			}
		}
	}

	if *growth {
		benign, adversarial, err := experiments.DecompressionGrowth(16, 10)
		cli.Fatal(err)
		// Flattened so "rows" is an array like every other experiment;
		// Kind distinguishes the two sweeps.
		type growthRow struct {
			Kind string
			experiments.GrowthPoint
		}
		var rows []growthRow
		for _, p := range benign {
			rows = append(rows, growthRow{"benign", p})
		}
		for _, p := range adversarial {
			rows = append(rows, growthRow{"adversarial", p})
		}
		emit("growth", rows, func() {
			fmt.Println("=== Theorem 3.6: decompression growth on a compressed complete binary tree (depth 16, 17 vertices, 65535 tree nodes) ===")
			fmt.Println("-- benign: plain downward chains /*/*/.../* (no decompression expected)")
			printGrowth(benign)
			fmt.Println("-- adversarial: k independent ancestor sibling-position conditions (~2^k growth, bounded by |T|)")
			printGrowth(adversarial)
			fmt.Println()
		})
	}

	if *vs {
		rows, err := experiments.VsBaseline(*scale, *seed)
		cli.Fatal(err)
		emit("vs_baseline", rows, func() {
			fmt.Println("=== Section 6: pure evaluation time, compressed instance vs uncompressed tree ===")
			fmt.Printf("%-12s %3s %14s %14s %10s %10s\n", "corpus", "Q", "compressed", "uncompressed", "speedup", "selected")
			for _, r := range rows {
				fmt.Printf("%-12s %3d %14v %14v %9.2fx %10d\n",
					r.Corpus, r.Query,
					r.EngineEval.Round(time.Microsecond), r.BaselineEval.Round(time.Microsecond),
					float64(r.BaselineEval)/float64(r.EngineEval), r.Selected)
			}
			fmt.Println()
		})
	}

	if *storebench {
		rows, err := experiments.StoreSweep(*corpusName, *docs, *scale, *seed, counts, []float64{1.0, 0.25})
		cli.Fatal(err)
		emit("store", rows, func() {
			fmt.Printf("=== Archive store: %s x %d documents, warm serving vs parse-per-query ===\n", *corpusName, *docs)
			experiments.PrintStore(os.Stdout, rows)
			fmt.Println()
		})
	}

	if *prunebench {
		rows, err := experiments.PruneSweep(*docs, *scale, *seed, *workers)
		cli.Fatal(err)
		emit("prune", rows, func() {
			fmt.Printf("=== Catalog pruning: mixed store, %d documents per corpus, synopsis index on vs off ===\n", *docs)
			experiments.PrintPrune(os.Stdout, rows)
			fmt.Println()
		})
	}

	if *planbench {
		rows, err := experiments.PlanSweep(*docs, *scale, *seed, *workers)
		cli.Fatal(err)
		emit("plan", rows, func() {
			fmt.Printf("=== Query planning: mixed store, %d documents per corpus, cost-based planner on vs off ===\n", *docs)
			experiments.PrintPlan(os.Stdout, rows)
			fmt.Println()
		})
		if *check {
			if err := experiments.CheckPlanInvariants(rows); err != nil {
				cli.Fatal(err)
			}
			if !*jsonOut {
				fmt.Println("plan invariants OK: every fan-out answered synopsis-direct, decode-free, >= 1.5x over overlay")
			}
		}
	}

	if *ingbench {
		rows, err := experiments.IngestSweep(*corpusName, *docs, *scale, *seed, counts)
		cli.Fatal(err)
		emit("ingest", rows, func() {
			fmt.Printf("=== Live ingestion: %s x %d documents streamed while querying ===\n", *corpusName, *docs)
			experiments.PrintIngest(os.Stdout, rows)
			fmt.Println()
		})
	}

	if *bundbench {
		var counts []int
		for _, part := range strings.Split(*bundleDocs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				cli.Fatal(fmt.Errorf("-bundledocs: bad count %q", part))
			}
			counts = append(counts, n)
		}
		rows, err := experiments.BundleSweep(counts, *workers)
		cli.Fatal(err)
		emit("bundle", rows, func() {
			fmt.Printf("=== Cold tier: bundle-packed vs loose catalogs of small documents ===\n")
			experiments.PrintBundle(os.Stdout, rows)
			fmt.Println()
		})
		if *check {
			if bad := experiments.CheckBundleInvariants(rows, 1.5); len(bad) > 0 {
				for _, b := range bad {
					fmt.Fprintln(os.Stderr, "BUNDLE INVARIANT VIOLATED:", b)
				}
				os.Exit(1)
			}
			if !*jsonOut {
				fmt.Println("all bundle-tier invariants hold")
				fmt.Println()
			}
		}
	}

	if *obsbench {
		rows, err := experiments.ObsSweep(*docs, *scale, *seed, *workers)
		cli.Fatal(err)
		emit("obs", rows, func() {
			fmt.Printf("=== Observability: mixed store, %d documents per corpus, metrics registry on vs off ===\n", *docs)
			experiments.PrintObs(os.Stdout, rows)
			fmt.Println()
		})
		if *check {
			if err := experiments.CheckObsInvariants(rows); err != nil {
				cli.Fatal(err)
			}
			if !*jsonOut {
				fmt.Println("obs invariants OK: instrumentation overhead within the 5% budget")
			}
		}
	}

	if *faultbench {
		rows, err := experiments.FaultSweep(*docs, *scale, *seed, *workers)
		cli.Fatal(err)
		emit("fault", rows, func() {
			fmt.Printf("=== Fault tolerance: mixed store, %d documents per corpus, scrub + corruption recovery ===\n", *docs)
			experiments.PrintFault(os.Stdout, rows)
			fmt.Println()
		})
		if *check {
			if err := experiments.CheckFaultInvariants(rows); err != nil {
				cli.Fatal(err)
			}
			if !*jsonOut {
				fmt.Println("fault invariants OK: exact quarantine, zero false positives")
			}
		}
	}

	if *clustbench {
		rows, err := experiments.ClusterSweep(*clustNodes, *docs, *scale, *seed, *workers, *clustRound)
		cli.Fatal(err)
		emit("cluster", rows, func() {
			fmt.Printf("=== Clustered serving: mixed catalog over 1..%d nodes, scatter-gather vs single store ===\n", *clustNodes)
			experiments.PrintCluster(os.Stdout, rows)
			fmt.Println()
		})
		if *check {
			if err := experiments.CheckClusterInvariants(rows); err != nil {
				cli.Fatal(err)
			}
			if !*jsonOut {
				fmt.Println("cluster invariants OK: zero degradation, byte-identical totals, remote pruning live")
			}
		}
	}

	if *relational {
		pts, err := experiments.RelationalSweep([]int{10, 100, 1000, 10000, 100000}, 8)
		cli.Fatal(err)
		emit("relational", pts, func() {
			fmt.Println("=== Introduction: R x 8 relational table, O(C*R) tree vs O(C) compressed edges ===")
			fmt.Printf("%8s %6s %14s %14s %14s\n", "rows", "cols", "tree verts", "dag verts", "dag edges")
			for _, p := range pts {
				fmt.Printf("%8d %6d %14d %14d %14d\n", p.Rows, p.Cols, p.TreeVertices, p.DagVertices, p.DagEdges)
			}
		})
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
