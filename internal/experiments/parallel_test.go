package experiments_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/skeleton"
	"repro/internal/xpath"
)

// goldenScale keeps the golden sweep fast while exercising every
// generator's planted query structures.
const goldenScale = 0.05

// goldenCase is one (corpus, query) frozen instance with its sequential
// result: the Figure 7 statistics, every result path and the
// materialized result instance.
type goldenCase struct {
	corpus string
	qnum   int
	f      *dag.Frozen
	prog   *xpath.Program
	seq    *engine.Result
	paths  []string
	inst   string
}

const goldenMaxPaths = 1 << 20

func buildGoldenCases(t *testing.T) []*goldenCase {
	t.Helper()
	var cases []*goldenCase
	for _, c := range corpus.Catalog() {
		scale := int(float64(c.DefaultScale) * goldenScale)
		if scale < 1 {
			scale = 1
		}
		doc := c.Generate(scale, 1)
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			inst, _, err := skeleton.BuildCompressed(doc, skeleton.Options{
				Mode: skeleton.TagsListed, Tags: prog.Tags, Strings: prog.Strings,
			})
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			f := dag.Freeze(inst)
			seq, err := engine.RunFrozen(f, prog)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			mat, _ := seq.Materialize()
			cases = append(cases, &goldenCase{
				corpus: c.Name, qnum: qi + 1, f: f, prog: prog, seq: seq,
				paths: seq.View.Paths(goldenMaxPaths), inst: mat.String(),
			})
		}
	}
	return cases
}

// diverges describes how r differs from the case's sequential result, or
// returns "" when it is identical: same selection sizes, same vertex/edge
// counts, same result paths and the same materialized instance, vertex
// for vertex.
func (gc *goldenCase) diverges(r *engine.Result) string {
	s := gc.seq
	switch {
	case r.SelectedDAG != s.SelectedDAG || r.SelectedTree != s.SelectedTree:
		return fmt.Sprintf("selected %d/%d, sequential %d/%d",
			r.SelectedDAG, r.SelectedTree, s.SelectedDAG, s.SelectedTree)
	case r.VertsBefore != s.VertsBefore || r.EdgesBefore != s.EdgesBefore ||
		r.VertsAfter != s.VertsAfter || r.EdgesAfter != s.EdgesAfter:
		return fmt.Sprintf("sizes %d/%d->%d/%d, sequential %d/%d->%d/%d",
			r.VertsBefore, r.EdgesBefore, r.VertsAfter, r.EdgesAfter,
			s.VertsBefore, s.EdgesBefore, s.VertsAfter, s.EdgesAfter)
	case !slices.Equal(r.View.Paths(goldenMaxPaths), gc.paths):
		return "result paths differ from the sequential run"
	}
	if mat, _ := r.Materialize(); mat.String() != gc.inst {
		return "materialized result instance differs from the sequential run"
	}
	return ""
}

// TestParallelGoldenAllCorpora is the golden equivalence suite for
// concurrent evaluation: for EVERY corpus generator and EVERY experiment
// query, several RunFrozen calls sharing one frozen instance (at several
// worker counts) must each produce output identical to a sequential run —
// the shape of a server answering the same query for many clients.
func TestParallelGoldenAllCorpora(t *testing.T) {
	for _, gc := range buildGoldenCases(t) {
		gc := gc
		t.Run(fmt.Sprintf("%s/Q%d", gc.corpus, gc.qnum), func(t *testing.T) {
			const runs = 4
			for _, workers := range []int{1, 4} {
				results := make([]*engine.Result, runs)
				errs := make([]error, runs)
				engine.ForEach(runs, workers, func(i int) {
					results[i], errs[i] = engine.RunFrozen(gc.f, gc.prog)
				})
				for i, r := range results {
					if errs[i] != nil {
						t.Fatalf("workers=%d run %d: %v", workers, i, errs[i])
					}
					if d := gc.diverges(r); d != "" {
						t.Fatalf("workers=%d run %d: %s", workers, i, d)
					}
				}
			}
		})
	}
}

// TestParallelGoldenBatched runs the whole catalog's (corpus, query)
// programs through ONE worker pool — documents from different corpora with
// different schemas evaluating side by side, several runs per frozen
// instance — and checks every run against its sequential result.
func TestParallelGoldenBatched(t *testing.T) {
	cases := buildGoldenCases(t)
	const replicas = 5
	n := len(cases) * replicas
	results := make([]*engine.Result, n)
	errs := make([]error, n)
	engine.ForEach(n, 3, func(i int) {
		gc := cases[i%len(cases)]
		results[i], errs[i] = engine.RunFrozen(gc.f, gc.prog)
	})
	for i, r := range results {
		gc := cases[i%len(cases)]
		if errs[i] != nil {
			t.Fatalf("%s Q%d run %d: %v", gc.corpus, gc.qnum, i, errs[i])
		}
		if d := gc.diverges(r); d != "" {
			t.Fatalf("%s Q%d run %d: %s", gc.corpus, gc.qnum, i, d)
		}
	}
}
