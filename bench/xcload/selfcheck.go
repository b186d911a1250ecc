package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// endToEndBounds are the end-to-end metrics and the share of the
// baseline by which each may worsen before a change counts as a
// regression. BENCHMARK.json carries the same table for the driver; a
// unit test keeps the two equal.
var endToEndBounds = []struct {
	name  string
	unit  string
	lower bool // lower is better
	bound float64
}{
	{"setup_s", "s", true, 0.20},
	{"ops_per_s", "ops/s", false, 0.10},
	{"read_p50_ms", "ms", true, 0.15},
	{"server_cpu_ms_per_op", "ms", true, 0.10},
	{"server_rss_mb", "MB", true, 0.08},
	{"stored_bytes_per_xml_byte", "ratio", true, 0.02},
}

// runSelfcheck runs the selected workloads twice on the same build and
// compares every end-to-end metric of the two sets with its bound: two
// runs of one commit must agree at least as well as the benchmark asks
// two commits to. The first set is written to <out>/baseline.json.
func runSelfcheck(cfg *config, selected []workload, quick bool) error {
	if cfg.trace {
		return fmt.Errorf("-selfcheck compares end-to-end metrics; drop -trace")
	}
	var sets [2][]*result
	for s := range sets {
		for i := range selected {
			r, err := runOne(cfg, &selected[i])
			if err != nil {
				return err
			}
			sets[s] = append(sets[s], r)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sets[0], "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "baseline.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}

	violations := 0
	fmt.Printf("| workload | metric | unit | run 1 | run 2 | difference | bound |\n|---|---|---|---|---|---|---|\n")
	for i := range selected {
		for _, m := range endToEndBounds {
			a, b := sets[0][i].Metrics[m.name].Value, sets[1][i].Metrics[m.name].Value
			diff := math.Abs(b-a) / a
			mark := ""
			if diff > m.bound {
				mark = " VIOLATION"
				violations++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.2f%% | %.0f%%%s |\n",
				selected[i].name, m.name, m.unit, a, b, 100*diff, 100*m.bound, mark)
		}
	}
	if violations > 0 && !quick {
		return fmt.Errorf("selfcheck: %d metric(s) differ between two runs of the same build by more than their bound", violations)
	}
	return nil
}
