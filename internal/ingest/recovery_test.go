package ingest_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/store"
)

// reopen simulates the process coming back after a crash: a fresh store
// over the same directory and a fresh ingester replaying the same WAL.
func reopen(t *testing.T, storeDir, walDir string, opts ingest.Options) (*store.Store, *ingest.Ingester) {
	t.Helper()
	s, err := store.Open(storeDir, store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts.WALDir = walDir
	opts.Store = s
	ing, err := ingest.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, ing
}

// TestCrashRecoveryGolden is the durability gate: ingest every corpus
// document, kill the process before any compaction, reopen, and require
// every corpus × query pair to evaluate exactly as direct
// core.Document evaluation — ingest → crash → replay → query equals
// parse → query.
func TestCrashRecoveryGolden(t *testing.T) {
	docs := smallCorpora(t)
	_, ing, storeDir, walDir := openPair(t, ingest.Options{})
	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}
	ing.Kill() // crash: no flush, no compaction — only the WAL survives

	if des, _ := os.ReadDir(storeDir); len(des) != 0 {
		t.Fatalf("crash test wants an empty archive dir, found %d entries", len(des))
	}

	s2, ing2 := reopen(t, storeDir, walDir, ingest.Options{})
	defer ing2.Close()
	st := ing2.Stats()
	if st.Replayed != len(docs) {
		t.Fatalf("replayed %d WAL records, want %d", st.Replayed, len(docs))
	}
	if got := s2.Len(); got != len(docs) {
		t.Fatalf("recovered catalog has %d docs, want %d", got, len(docs))
	}
	assertGolden(t, s2, docs, "after crash recovery")

	// And the recovered state compacts normally.
	if err := ing2.Flush(); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, s2, docs, "after post-recovery compaction")
}

// TestCrashRecoveryTornTail tears the final WAL record (a partial write
// at power-cut time): recovery must keep every complete document and
// drop only the torn one.
func TestCrashRecoveryTornTail(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	docA, docB := c.Generate(10, 1), c.Generate(10, 2)
	_, ing, storeDir, walDir := openPair(t, ingest.Options{})
	if err := ing.Add("a", docA); err != nil {
		t.Fatal(err)
	}
	if err := ing.Add("b", docB); err != nil {
		t.Fatal(err)
	}
	ing.Kill()

	// Chop bytes off the single WAL segment, mid-way into b's record.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 WAL segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-int64(len(docB)/2)); err != nil {
		t.Fatal(err)
	}

	s2, ing2 := reopen(t, storeDir, walDir, ingest.Options{})
	defer ing2.Close()
	if st := ing2.Stats(); st.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (torn tail dropped)", st.Replayed)
	}
	if !s2.Has("a") || s2.Has("b") {
		t.Fatalf("recovered catalog %v: want only a", s2.Names())
	}
	res, err := s2.QueryCtx(context.Background(), "a", c.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree == 0 {
		t.Fatal("recovered document a returns no matches")
	}
	// The torn log accepts new writes after recovery.
	if err := ing2.Add("c", docB); err != nil {
		t.Fatal(err)
	}
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAfterPartialCompaction crashes after some documents were
// compacted (WAL retired) and others not: recovery = archives + replay.
func TestCrashAfterPartialCompaction(t *testing.T) {
	docs := smallCorpora(t)
	_, ing, storeDir, walDir := openPair(t, ingest.Options{})
	if err := ing.Add("DBLP", docs["DBLP"]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil { // DBLP is now an archive; WAL empty
		t.Fatal(err)
	}
	if err := ing.Add("OMIM", docs["OMIM"]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Delete("DBLP"); err != nil { // tombstone survives only in the WAL
		t.Fatal(err)
	}
	ing.Kill()

	s2, ing2 := reopen(t, storeDir, walDir, ingest.Options{})
	defer ing2.Close()
	if s2.Has("DBLP") {
		t.Fatal("tombstone lost in crash: DBLP still visible")
	}
	if !s2.Has("OMIM") {
		t.Fatal("un-compacted OMIM lost in crash")
	}
	if err := ing2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "DBLP"+store.Ext)); !os.IsNotExist(err) {
		t.Fatalf("DBLP archive survives recovered tombstone: %v", err)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "OMIM"+store.Ext)); err != nil {
		t.Fatalf("OMIM archive missing after recovery compaction: %v", err)
	}
}

// TestRecoveryIsIdempotent replays the same WAL twice (crash during
// recovery, before any new write): same catalog both times.
func TestRecoveryIsIdempotent(t *testing.T) {
	docs := smallCorpora(t)
	_, ing, storeDir, walDir := openPair(t, ingest.Options{})
	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatal(err)
		}
	}
	ing.Kill()

	_, ing2 := reopen(t, storeDir, walDir, ingest.Options{})
	ing2.Kill() // crash again before compaction

	s3, ing3 := reopen(t, storeDir, walDir, ingest.Options{})
	defer ing3.Close()
	if got := s3.Len(); got != len(docs) {
		t.Fatalf("second recovery has %d docs, want %d", got, len(docs))
	}
	assertGolden(t, s3, docs, "after double recovery")
}
