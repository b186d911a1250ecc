package store_test

import (
	"testing"

	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/dagtest"
	"repro/internal/store"
	"repro/internal/xpath"
)

// TestServedQueryAllocs is the allocation-regression bound for a served
// point query on a cached document: Doc.Run plus the first 100 result
// addresses, what GET /query does before JSON encoding. Rewriting steps
// must cost a few allocations each (one edge arena, one extension slice),
// never one per vertex they copy, and the addresses must cost about one
// allocation each, never O(|document|) — the bound is 100 addresses plus
// headroom.
func TestServedQueryAllocs(t *testing.T) {
	if dagtest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, name := range []string{"TreeBank", "XMark"} {
		c, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := container.Split(c.Generate(c.DefaultScale/8, 1))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := store.NewDoc(name, a)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range c.Queries {
			prog, err := xpath.CompileQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			serve := func() {
				res, err := doc.Run(prog)
				if err != nil {
					t.Fatal(err)
				}
				res.Paths(100)
			}
			serve() // distil string conditions, warm pools and caches
			allocs := testing.AllocsPerRun(20, serve)
			if allocs > 256 {
				t.Errorf("%s Q%d: Doc.Run + Paths(100) allocates %.0f/op, want <= 256", name, qi+1, allocs)
			}
			t.Logf("%s Q%d: %.0f allocs/op", name, qi+1, allocs)
		}
	}
}
