package ingest_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// TestLiveIngestPrunable: documents are prunable the moment they are
// queryable — before any compaction — and pruning during live ingest
// never changes results: the fan-out must agree with direct evaluation
// of the original XML for every corpus query while everything still
// lives in the memtable.
func TestLiveIngestPrunable(t *testing.T) {
	s, ing, _, _ := openPair(t, ingest.Options{})
	defer ing.Close()
	docs := smallCorpora(t)
	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}

	// A Baseball-only root path: every other live document must be
	// pruned at the catalog, and the one match must come through.
	results, err := s.QueryAllCtx(context.Background(), `/SEASON/LEAGUE/DIVISION/TEAM/PLAYER`)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, br := range results {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		if br.Pruned {
			pruned++
		}
		want, err := core.Load(docs[br.Name]).Query(`/SEASON/LEAGUE/DIVISION/TEAM/PLAYER`)
		if err != nil {
			t.Fatal(err)
		}
		if br.Result.SelectedTree != want.SelectedTree {
			t.Errorf("%s: fan-out %d, direct %d", br.Name, br.Result.SelectedTree, want.SelectedTree)
		}
	}
	if want := len(docs) - 1; pruned != want {
		t.Fatalf("pruned %d live docs, want %d", pruned, want)
	}
	if st := ing.Stats(); st.SynopsisBuilds != uint64(len(docs)) {
		t.Fatalf("ingest synopsis builds = %d, want %d", st.SynopsisBuilds, len(docs))
	}

	// Full soundness sweep over every corpus query while live.
	for _, c := range corpus.Catalog() {
		for qi, q := range c.Queries {
			results, err := s.QueryAllCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("%s Q%d: %v", c.Name, qi+1, err)
			}
			for _, br := range results {
				if br.Err != nil {
					t.Fatalf("%s Q%d %s: %v", c.Name, qi+1, br.Name, br.Err)
				}
				want, err := core.Load(docs[br.Name]).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if br.Result.SelectedTree != want.SelectedTree {
					t.Errorf("%s Q%d doc %s: fan-out %d, direct %d (pruned=%v)",
						c.Name, qi+1, br.Name, br.Result.SelectedTree, want.SelectedTree, br.Pruned)
				}
			}
		}
	}
}

// TestCompactionWritesSidecars: Flush must leave a valid sidecar next to
// every archive, the index tracking every compacted document, and a
// reopened store must reuse the sidecars without rebuilding.
func TestCompactionWritesSidecars(t *testing.T) {
	s, ing, storeDir, _ := openPair(t, ingest.Options{})
	if err := ing.Add("a", []byte(`<a><b/></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Add("c", []byte(`<c><d/></c>`)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "c"} {
		fi, err := os.Stat(filepath.Join(storeDir, name+store.Ext))
		if err != nil {
			t.Fatal(err)
		}
		side := filepath.Join(storeDir, name+synopsis.Ext)
		if _, err := synopsis.LoadSidecar(side, synopsis.NewDict(), fi.Size()); err != nil {
			t.Fatalf("sidecar %s after flush (archive pairing included): %v", side, err)
		}
	}
	if st := s.Stats(); st.SynopsisDocs != 2 {
		t.Fatalf("indexed %d archives after flush, want 2", st.SynopsisDocs)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.SynopsisBuilds != 0 || st.SynopsisDocs != 2 {
		t.Fatalf("reopen: builds=%d indexed=%d, want 0/2", st.SynopsisBuilds, st.SynopsisDocs)
	}
}

// TestTombstoneRemovesSidecar: deleting a compacted document must remove
// its sidecar along with the archive at the next compaction.
func TestTombstoneRemovesSidecar(t *testing.T) {
	_, ing, storeDir, _ := openPair(t, ingest.Options{})
	if err := ing.Add("doomed", []byte(`<a><b/></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(storeDir, "doomed"+synopsis.Ext)
	if _, err := os.Stat(side); err != nil {
		t.Fatal(err)
	}
	if err := ing.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Fatalf("sidecar survived the tombstone: %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacementNotJudgedByStaleSynopsis: re-ingesting a name over an
// archived document with a different vocabulary must be judged by the
// live synopsis, never the stale archive one — in both directions.
func TestReplacementNotJudgedByStaleSynopsis(t *testing.T) {
	s, ing, _, _ := openPair(t, ingest.Options{})
	defer ing.Close()
	if err := ing.Add("x", []byte(`<a><b/></a>`)); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil { // x archived with synopsis {a,b}
		t.Fatal(err)
	}
	if err := ing.Add("x", []byte(`<c><d/></c>`)); err != nil { // live replacement
		t.Fatal(err)
	}

	// The new content must be reachable (the stale archive synopsis
	// would have pruned /c/d)...
	results, err := s.QueryAllCtx(context.Background(), `/c/d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil || results[0].Result.SelectedTree != 1 {
		t.Fatalf("replacement content unreachable: %+v", results)
	}
	// ...and the old content must be gone (prunable by the live
	// synopsis, but above all empty).
	results, err = s.QueryAllCtx(context.Background(), `/a/b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil || results[0].Result.SelectedTree != 0 {
		t.Fatalf("old content still served: %+v", results)
	}
	if !results[0].Pruned {
		t.Fatalf("live synopsis should have pruned the replaced vocabulary")
	}
}
