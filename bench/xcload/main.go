// xcload is the repository's end-to-end benchmark: it generates a
// seeded corpus, sets up a real xcserve process from it, drives it over
// HTTP with two closed-loop clients, verifies every answer against an
// oracle computed from the raw XML, and prints every metric by name
// and unit. bench/README.md describes the workloads and metrics;
// bench/run.sh builds the binaries this program needs and runs it.
//
// Linux only: server CPU and memory come from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	windowLen      = 3 * time.Second
	defaultSeconds = 24 // 8 windows
	warmLen        = 5 * time.Second
	numSetups      = 3
)

// normalizeArgs rewrites the two spellings of the trace switch that
// the flag package cannot parse as one flag: a bare "-trace" becomes
// "-trace=1", and "-trace 0|1" becomes "-trace=0|1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a != "-trace" && a != "--trace" {
			out = append(out, a)
			continue
		}
		v := "1"
		if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			v = args[i+1]
			i++
		}
		out = append(out, "-trace="+v)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("xcload", flag.ExitOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload (default: all four)")
		seed         = fs.Uint64("seed", 1, "seed for the corpus and the op sequence")
		seconds      = fs.Int("seconds", defaultSeconds, "measured phase length; whole 3-second windows are used")
		trace        = fs.Bool("trace", false, "traced run: per-layer metrics instead of end-to-end metrics")
		quick        = fs.Bool("quick", false, "smoke mode: 2 windows of 1 s, one set-up, bounds meaningless")
		selfcheck    = fs.Bool("selfcheck", false, "run the suite twice and compare every end-to-end metric with its bound")
		binDir       = fs.String("bin", "", "directory holding the xcserve and xcarchive binaries (required)")
		outDir       = fs.String("out", "bench/out", "directory for trace files and selfcheck results")
	)
	_ = fs.Parse(normalizeArgs(os.Args[1:])) // ExitOnError
	if fs.NArg() != 0 || *binDir == "" {
		fs.Usage()
		os.Exit(2)
	}
	trapSignals()

	cfg := &config{
		seed:      *seed,
		windows:   *seconds / int(windowLen/time.Second),
		window:    windowLen,
		warm:      warmLen,
		setups:    numSetups,
		trace:     *trace,
		xcserve:   filepath.Join(*binDir, "xcserve"),
		xcarchive: filepath.Join(*binDir, "xcarchive"),
		outDir:    *outDir,
	}
	if cfg.windows < 1 {
		cfg.windows = 1
	}
	if *quick {
		cfg.windows, cfg.window, cfg.warm, cfg.setups = 2, time.Second, time.Second, 1
	}

	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		selected = []workload{*w}
	}

	var err error
	if *selfcheck {
		err = runSelfcheck(cfg, selected, *quick)
	} else {
		for i := range selected {
			var r *result
			if r, err = runOne(cfg, &selected[i]); err != nil {
				break
			}
			printResult(r)
		}
	}
	atExit.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xcload:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	atExit.run()
	fmt.Fprintf(os.Stderr, "xcload: "+format+"\n", args...)
	os.Exit(1)
}

// runOne generates one workload's input and runs it, traced or not.
// Its files and processes are gone when it returns.
func runOne(cfg *config, w *workload) (*result, error) {
	e, err := newEnv(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var r *result
	if cfg.trace {
		r, err = e.traced()
	} else {
		r, err = e.endToEnd()
	}
	atExit.run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for name := range r.Metrics {
		if err := validMetricName(name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// printResult writes the human-readable table and then, as the last
// line, the one JSON object the benchmark contract asks for.
func printResult(r *result) {
	fmt.Printf("== %s (seed %d): %d attempted, %d failed\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Printf("%-40s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(r.Notes) {
		fmt.Printf("  note %-33s %14.4f\n", k, r.Notes[k])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Printf("%s\n", line)
}
