package store_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// TestQueryAllPruningGolden is the soundness gate for catalog-level
// pruning: over a mixed store holding one document per corpus, every
// corpus query must return identical per-document results with the
// synopsis index on and off. The index may only change what gets
// *visited*, never what gets *answered*.
func TestQueryAllPruningGolden(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	pruned, err := store.Open(dir, store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := store.Open(dir, store.Options{Workers: 4, DisableSynopsis: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Catalog() {
		for qi, q := range c.Queries {
			got, err := pruned.QueryAllCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("%s Q%d pruned: %v", c.Name, qi+1, err)
			}
			want, err := full.QueryAllCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("%s Q%d full: %v", c.Name, qi+1, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s Q%d: %d vs %d results", c.Name, qi+1, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Name != w.Name || (g.Err == nil) != (w.Err == nil) {
					t.Fatalf("%s Q%d: result %d is %s/%v vs %s/%v", c.Name, qi+1, i, g.Name, g.Err, w.Name, w.Err)
				}
				if g.Err != nil {
					continue
				}
				// SelectedDAG is a DAG-representation statistic a
				// synopsis-direct answer legitimately reports as 0 (no
				// evaluation ran); tree-level counts, paths and errors are
				// the semantic contract.
				if g.Result.SelectedTree != w.Result.SelectedTree || (!g.Direct && g.Result.SelectedDAG != w.Result.SelectedDAG) {
					t.Errorf("%s Q%d doc %s: pruned selected (%d,%d), full (%d,%d)",
						c.Name, qi+1, g.Name, g.Result.SelectedDAG, g.Result.SelectedTree,
						w.Result.SelectedDAG, w.Result.SelectedTree)
				}
				if gp, wp := g.Result.Paths(1000), w.Result.Paths(1000); !reflect.DeepEqual(gp, wp) {
					t.Errorf("%s Q%d doc %s: pruned paths %v, full paths %v", c.Name, qi+1, g.Name, gp, wp)
				}
				if g.Pruned && w.Result.SelectedTree != 0 {
					t.Errorf("%s Q%d doc %s: pruned a document with %d matches", c.Name, qi+1, g.Name, w.Result.SelectedTree)
				}
			}
		}
	}
	st := pruned.Stats()
	if st.PrunePruned == 0 {
		t.Fatalf("mixed-corpus sweep pruned nothing: %+v", st)
	}
	if st.PruneConsidered != st.PrunePruned+st.PruneScanned {
		t.Fatalf("prune counters inconsistent: %+v", st)
	}
}

// TestSelectivePruneSkipsLoads: a root-path query whose tags exist in one
// corpus only must prune every other document at the catalog — without
// decoding a single pruned archive — and prune at least half the store.
// The planner is disabled so the one matching document is really scanned
// (with it on, a chain-shaped query answers synopsis-direct and nothing
// loads at all — TestSynopsisDirectAllocs pins that separately).
func TestSelectivePruneSkipsLoads(t *testing.T) {
	docs := smallCorpora(t)
	s, err := store.Open(packDir(t, docs), store.Options{Workers: 4, DisablePlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.QueryAllCtx(context.Background(), `/SEASON/LEAGUE/DIVISION/TEAM/PLAYER`) // Baseball only
	if err != nil {
		t.Fatal(err)
	}
	prunedCount := 0
	for _, br := range results {
		if br.Err != nil {
			t.Fatalf("%s: %v", br.Name, br.Err)
		}
		if br.Pruned {
			prunedCount++
			if br.Name == "Baseball" {
				t.Fatal("pruned the one matching document")
			}
			if br.Result.SelectedTree != 0 || br.Result.Paths(10) != nil {
				t.Fatalf("%s: pruned result is not empty", br.Name)
			}
		}
	}
	if want := len(docs) - 1; prunedCount != want {
		t.Fatalf("pruned %d of %d docs, want %d", prunedCount, len(docs), want)
	}
	if prunedCount*2 < len(docs) {
		t.Fatalf("selective query pruned %d of %d docs (< 50%%)", prunedCount, len(docs))
	}
	st := s.Stats()
	if st.DocMisses != 1 || st.Loaded != 1 {
		t.Fatalf("pruned documents were decoded anyway: %+v", st)
	}
	if st.Queries != 1 {
		t.Fatalf("queries counter must count scanned docs only, got %d", st.Queries)
	}
}

// TestSidecarReuseAcrossOpens: the first open of an un-sidecared store
// builds and persists every synopsis; a second open must load them all
// back without rebuilding a single one.
func TestSidecarReuseAcrossOpens(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SynopsisBuilds != uint64(len(docs)) || st.SynopsisDocs != len(docs) {
		t.Fatalf("first open: builds=%d indexed=%d, want %d/%d", st.SynopsisBuilds, st.SynopsisDocs, len(docs), len(docs))
	}
	for name := range docs {
		side := filepath.Join(dir, name+synopsis.Ext)
		if _, err := os.Stat(side); err != nil {
			t.Fatalf("sidecar %s not persisted: %v", side, err)
		}
	}

	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Stats()
	if st2.SynopsisBuilds != 0 || st2.SynopsisDocs != len(docs) {
		t.Fatalf("second open: builds=%d indexed=%d, want 0/%d", st2.SynopsisBuilds, st2.SynopsisDocs, len(docs))
	}
	if st2.SynopsisBytes <= 0 {
		t.Fatalf("synopsis_bytes = %d, want > 0", st2.SynopsisBytes)
	}
}

// TestCorruptSidecarRebuilt: a torn or overwritten sidecar must be
// rebuilt from the archive at open, not trusted and not fatal.
func TestCorruptSidecarRebuilt(t *testing.T) {
	docs := map[string][]byte{"a": []byte(`<a><b/></a>`), "c": []byte(`<c><d/></c>`)}
	dir := packDir(t, docs)
	if _, err := store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a"+synopsis.Ext), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SynopsisBuilds != 1 || st.SynopsisDocs != 2 {
		t.Fatalf("builds=%d indexed=%d, want 1/2", st.SynopsisBuilds, st.SynopsisDocs)
	}
	// Pruning still answers correctly for both documents.
	results, err := s.QueryAllCtx(context.Background(), `/a/b`)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range results {
		want := uint64(0)
		if br.Name == "a" {
			want = 1
		}
		if br.Err != nil || br.Result.SelectedTree != want {
			t.Fatalf("%s: selected %d (err %v), want %d", br.Name, br.Result.SelectedTree, br.Err, want)
		}
	}
}

// TestStaleSidecarRejected simulates a crash between an archive
// replacement and its sidecar write: the surviving sidecar is
// internally valid (CRC passes) but describes the old content, and
// must be rejected by the archive-size pairing check and rebuilt — a
// trusted stale summary would prune the new content.
func TestStaleSidecarRejected(t *testing.T) {
	dir := packDir(t, map[string][]byte{"doc": []byte(`<a><b/></a>`)})
	if _, err := store.Open(dir, store.Options{}); err != nil { // writes doc.xcs for <a><b/>
		t.Fatal(err)
	}
	// Replace the archive out from under the sidecar (different
	// vocabulary, different size) — the crash left doc.xcs untouched.
	replacement := packDir(t, map[string][]byte{"doc": []byte(`<c><d>replacement text</d><d/><d/></c>`)})
	data, err := os.ReadFile(filepath.Join(replacement, "doc"+store.Ext))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "doc"+store.Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SynopsisBuilds != 1 {
		t.Fatalf("stale sidecar was trusted: builds=%d, want 1", st.SynopsisBuilds)
	}
	results, err := s.QueryAllCtx(context.Background(), `/c/d`)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Result.SelectedTree != 3 {
		t.Fatalf("new content pruned by stale summary: %+v", results[0])
	}
}

// TestRemoveArchiveDropsSynopsis: catalog removal must drop the synopsis
// with the entry, so a later same-name archive cannot be judged by a
// stale summary.
func TestRemoveArchiveDropsSynopsis(t *testing.T) {
	docs := map[string][]byte{"a": []byte(`<a><b/></a>`)}
	s, err := store.Open(packDir(t, docs), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SynopsisDocs != 1 {
		t.Fatalf("indexed=%d, want 1", st.SynopsisDocs)
	}
	s.RemoveArchive("a")
	if st := s.Stats(); st.SynopsisDocs != 0 {
		t.Fatalf("indexed=%d after removal, want 0", st.SynopsisDocs)
	}
}

// TestDisableSynopsis: with the index off nothing is built, written or
// pruned.
func TestDisableSynopsis(t *testing.T) {
	docs := map[string][]byte{"a": []byte(`<a><b/></a>`)}
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{DisableSynopsis: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryAllCtx(context.Background(), `//zzz`); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SynopsisDocs != 0 || st.PruneConsidered != 0 || st.PrunePruned != 0 {
		t.Fatalf("disabled index did work: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "a"+synopsis.Ext)); !os.IsNotExist(err) {
		t.Fatalf("disabled index wrote a sidecar: %v", err)
	}
}
