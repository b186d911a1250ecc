package core_test

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dagtest"
	"repro/internal/xpath"
)

// TestPreparedRunAllocs is the allocation-regression bound for the read
// path: a warm tag-only Prepared.Run must allocate O(its result) — a
// detached selection slice, a view and a result struct, plus one edge
// arena and one extension slice per rewriting step — never O(|document|)
// (copying the base instance would cost two allocations per vertex, tens
// of thousands on these corpora) and never one allocation per vertex a
// rewrite copies. The absolute bound of 64 allocs/op is the gate; it is
// generous only because pool refills after a GC cost a few extra
// allocations.
func TestPreparedRunAllocs(t *testing.T) {
	if dagtest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name   string
		corpus string
		div    int // scale = DefaultScale / div
		query  int // 0-based appendix query index
	}{
		// Q1: condition-only (upward axes, Corollary 3.7).
		{"upward-only", "SwissProt", 4, 0},
		// Q2: a chain of child axes (downward, copy-on-write rewrites).
		{"child-chain", "SwissProt", 4, 1},
		// Q2 on TreeBank: a child chain whose steps split shared vertices.
		{"splitting-child-chain", "TreeBank", 8, 1},
		// Q5 on TreeBank: descendant steps and preceding (sibling rewrites).
		{"preceding", "TreeBank", 8, 4},
	} {
		c, err := corpus.ByName(tc.corpus)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := core.Load(c.Generate(c.DefaultScale/tc.div, 1)).Prepare()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := core.Compile(c.Queries[tc.query])
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.Strings) > 0 {
			t.Fatalf("%s: test needs a tag-only query", tc.name)
		}
		// Warm the overlay pool and the frozen base's caches.
		if _, err := prep.Run(prog); err != nil {
			t.Fatal(err)
		}

		allocs := testing.AllocsPerRun(50, func() {
			if _, err := prep.Run(prog); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("%s: Prepared.Run allocates %.0f/op, want <= 64", tc.name, allocs)
		}
		t.Logf("%s: %.0f allocs/op", tc.name, allocs)
	}
}

// TestOverlayConcurrentMixedRace hammers one Prepared from many
// goroutines with a mix of tag-only queries (shared frozen base, pooled
// overlays), string-condition queries (shared merged memo), result-path
// decoding and lazy materialization — the shapes a serving layer runs
// concurrently. Run with -race; results are checked against a sequential
// golden pass.
func TestOverlayConcurrentMixedRace(t *testing.T) {
	c, err := corpus.ByName("Shakespeare")
	if err != nil {
		t.Fatal(err)
	}
	doc := core.Load(c.Generate(4, 3))
	prep, err := doc.Prepare()
	if err != nil {
		t.Fatal(err)
	}

	type golden struct {
		tree  uint64
		paths []string
	}
	progs := make([]*xpath.Program, len(c.Queries))
	want := make([]golden, len(c.Queries))
	for i, q := range c.Queries {
		progs[i], err = core.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(progs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = golden{res.SelectedTree, res.Paths(25)}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	workers := 4 * runtime.GOMAXPROCS(0)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (g + round) % len(progs)
				res, err := prep.Run(progs[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				if res.SelectedTree != want[i].tree {
					errs <- "selected-tree mismatch under concurrency"
					return
				}
				switch round % 3 {
				case 0:
					paths := res.Paths(25)
					if len(paths) != len(want[i].paths) {
						errs <- "paths mismatch under concurrency"
						return
					}
				case 1:
					inst := res.Instance()
					if err := inst.Validate(); err != nil {
						errs <- "materialized instance invalid: " + err.Error()
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
