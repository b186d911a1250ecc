package store_test

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
)

// TestSynopsisDirectAllocs is the allocation-regression bound for the
// synopsis-direct fast path (the planner-side analogue of core's
// TestPreparedRunAllocs): on a warm mixed store, an exists- or
// count-shaped fan-out consumed count-only must decode no archive at
// all and allocate O(catalog) — result slots, skip set and a handful of
// direct-result structs per document — never the O(|document|) an
// overlay evaluation costs. The bound is generous (the fan-out worker
// pool's goroutines allocate) but far below one evaluation's count. The
// table covers Q1 (exists) and Q2 (count) of four corpora whose
// vocabularies are disjoint, so every fan-out answers its home document
// direct and prunes or answers the rest.
func TestSynopsisDirectAllocs(t *testing.T) {
	dir := packDir(t, smallCorpora(t))
	s, err := store.Open(dir, store.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	type allocCase struct {
		name  string
		query string
	}
	var cases []allocCase
	for _, name := range []string{"SwissProt", "DBLP", "Shakespeare", "Baseball"} {
		c, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			allocCase{name + "/exists", c.Queries[0]},
			allocCase{name + "/count", c.Queries[1]})
	}

	for _, tc := range cases {
		// Warm: compile, plan, and let every document settle whatever
		// caching its first fan-out wants.
		if _, err := s.QueryAllCtx(context.Background(), tc.query); err != nil {
			t.Fatal(err)
		}

		before := s.Stats()
		var sel uint64
		perFanout := testing.AllocsPerRun(50, func() {
			res, err := s.QueryAllCtx(context.Background(), tc.query)
			if err != nil {
				t.Fatal(err)
			}
			sel = 0
			for i := range res {
				if res[i].Err != nil {
					t.Fatal(res[i].Err)
				}
				if !res[i].Direct && !res[i].Pruned {
					t.Fatalf("%s: doc %s was evaluated, want synopsis-direct or pruned", tc.name, res[i].Name)
				}
				sel += res[i].Result.SelectedTree
			}
		})
		after := s.Stats()

		if sel == 0 {
			t.Errorf("%s: query matched nothing — the bound is vacuous", tc.name)
		}
		if d := after.DocMisses - before.DocMisses; d != 0 {
			t.Errorf("%s: %d archive decode(s) during direct fan-outs, want 0", tc.name, d)
		}
		if d := after.PlanFallback - before.PlanFallback; d != 0 {
			t.Errorf("%s: %d planner fallback(s) during count-only consumption, want 0", tc.name, d)
		}
		if after.PlanSynopsisDirect == before.PlanSynopsisDirect {
			t.Errorf("%s: plan_synopsis_direct did not advance", tc.name)
		}

		perDoc := perFanout / float64(s.Len())
		const bound = 48
		if perDoc > bound {
			t.Errorf("%s: direct fan-out allocates %.1f/doc (%.0f total), want <= %d/doc",
				tc.name, perDoc, perFanout, bound)
		}
		t.Logf("%s: %.0f allocs per fan-out, %.1f per document", tc.name, perFanout, perDoc)
	}
}
