package ingest_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/store"
)

// looseArchives counts .xca files in dir.
func looseArchives(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), store.Ext) {
			n++
		}
	}
	return n
}

// TestCompactionPacksCold drives the full write path through the packing
// stage: Add → Flush must leave every document bundled (no loose .xca
// remaining), serving golden results, and the whole state must survive a
// kill and reopen — including the tier migration itself, which is only
// recorded on disk.
func TestCompactionPacksCold(t *testing.T) {
	docs := smallCorpora(t)
	s, ing, storeDir, walDir := openPair(t, ingest.Options{PackMinDocs: 1})
	defer ing.Close()

	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	ist := ing.Stats()
	if ist.PackedDocs != uint64(len(docs)) {
		t.Fatalf("PackedDocs = %d, want %d", ist.PackedDocs, len(docs))
	}
	sst := s.Stats()
	if sst.BundledDocs != len(docs) || sst.Bundles == 0 {
		t.Fatalf("store stats %+v: want all %d docs bundled", sst, len(docs))
	}
	if n := looseArchives(t, storeDir); n != 0 {
		t.Fatalf("%d loose archives remain after packing", n)
	}
	assertGolden(t, s, docs, "packed")

	// Kill and reopen: the bundled tier is the only copy now.
	ing.Kill()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(storeDir, store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := ingest.Open(ingest.Options{WALDir: walDir, Store: s2, PackMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	assertGolden(t, s2, docs, "packed+reopened")
}

// TestPackedDeleteAndReplace exercises the mutations a bundled document
// can undergo: deletion must tombstone the needle (and stick across
// reopen), and re-adding the same name must serve the new content with
// the bundled copy left dead for the auditor.
func TestPackedDeleteAndReplace(t *testing.T) {
	docs := smallCorpora(t)
	s, ing, storeDir, walDir := openPair(t, ingest.Options{PackMinDocs: 1})
	defer ing.Close()

	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}

	// Delete a bundled document.
	victim := "DBLP"
	if err := ing.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCtx(context.Background(), victim, `//article`); err == nil {
		t.Fatal("deleted bundled document still answers queries")
	}
	if st := s.Stats(); st.BundledDocs != len(docs)-1 {
		t.Fatalf("BundledDocs = %d after delete, want %d", st.BundledDocs, len(docs)-1)
	}

	// Replace another under the same name: Shakespeare content under the
	// Baseball name, so tier confusion is detectable.
	if err := ing.Add("Baseball", docs["Shakespeare"]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryCtx(context.Background(), "Baseball", `//SPEECH`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree == 0 {
		t.Fatal("replacement content is not being served")
	}

	// Both mutations survive a kill/reopen.
	ing.Kill()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(storeDir, store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := ingest.Open(ingest.Options{WALDir: walDir, Store: s2, PackMinDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ing2.Close()
	if s2.Has(victim) {
		t.Fatal("deleted document resurrected by reopen")
	}
	res, err = s2.QueryCtx(context.Background(), "Baseball", `//SPEECH`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree == 0 {
		t.Fatal("replacement content lost across reopen")
	}
}

// TestHostileNamesRejectedByIngest runs the shared hostile-name classes
// through the ingest write API: Add and Delete must both refuse them
// before any file or WAL state is touched.
func TestHostileNamesRejectedByIngest(t *testing.T) {
	s, ing, storeDir, _ := openPair(t, ingest.Options{})
	defer ing.Close()

	hostile := []string{
		"", "..", "../../etc/passwd", "a/b", `a\b`, `..\..\boot.ini`,
		".hidden", "a b", strings.Repeat("a", 201),
	}
	for _, name := range hostile {
		if err := ing.Add(name, []byte(`<x/>`)); err == nil {
			t.Fatalf("Add(%q) accepted a hostile name", name)
		}
		if err := ing.Delete(name); err == nil {
			t.Fatalf("Delete(%q) accepted a hostile name", name)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d documents catalogued from hostile names", n)
	}
	if n := looseArchives(t, storeDir); n != 0 {
		t.Fatalf("%d archives written from hostile names", n)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "..", "etc")); err == nil {
		t.Fatal("traversal escaped the store directory")
	}
}
