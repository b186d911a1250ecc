package store_test

import (
	"context"
	"fmt"
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

// TestFanoutAllocs bounds what a fan-out spends on a document it never
// touches: one pruned by its synopsis, or answered direct from synopsis
// statistics, must cost less than one allocation — those answers are
// shared fixed results, and the response slices are sized once. It
// serves the same query over smallCorpora with and without 128 extra
// small Baseball-shaped documents and divides the difference in
// allocations per Do by the documents added. DBLP's string query
// prunes every pad; Baseball's exists query answers every pad direct,
// count-only (max 0) as the direct path's contract asks.
func TestFanoutAllocs(t *testing.T) {
	if dagtest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const pads = 128
	base := smallCorpora(t)
	padded := smallCorpora(t)
	for i := 0; i < pads; i++ {
		padded[fmt.Sprintf("pad%03d", i)] = []byte(fmt.Sprintf(
			"<SEASON><LEAGUE><DIVISION><TEAM><PLAYER><SURNAME>p%d</SURNAME></PLAYER></TEAM></DIVISION></LEAGUE></SEASON>", i))
	}
	open := func(docs map[string][]byte) *store.Store {
		s, err := store.Open(packDir(t, docs), store.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	small, large := open(base), open(padded)

	for _, tc := range []struct {
		name string
		req  store.Request
		skip func(*store.FanoutResponse) int
	}{
		{"pruned", store.Request{Query: `//article[author["Codd"]]`, Max: 100},
			func(r *store.FanoutResponse) int { return r.Pruned }},
		{"direct", store.Request{Query: `/self::*[SEASON/LEAGUE/DIVISION/TEAM/PLAYER]`, Max: 0},
			func(r *store.FanoutResponse) int { return r.Direct }},
	} {
		var skipped [2]int
		var allocs [2]float64
		for i, s := range []*store.Store{small, large} {
			serve := func() {
				resp, err := s.Do(context.Background(), tc.req)
				if err != nil {
					t.Fatal(err)
				}
				skipped[i] = tc.skip(resp.Fanout)
			}
			serve() // compile, plan, load and warm the evaluated documents
			allocs[i] = testing.AllocsPerRun(50, serve)
		}
		if d := skipped[1] - skipped[0]; d != pads {
			t.Fatalf("%s: the pads added %d %s documents, want %d", tc.name, d, tc.name, pads)
		}
		per := (allocs[1] - allocs[0]) / pads
		t.Logf("%s: %.0f allocs/op over smallCorpora, %.0f with %d pads: %.3f per pad", tc.name, allocs[0], allocs[1], pads, per)
		if per >= 1 {
			t.Errorf("%s: %.2f allocations per %s document, want < 1", tc.name, per, tc.name)
		}
	}
}
