package ingest_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/store"
)

// openPair opens an empty store over a fresh directory and an ingester
// writing into it, WAL under a sibling directory.
func openPair(t *testing.T, opts ingest.Options) (*store.Store, *ingest.Ingester, string, string) {
	t.Helper()
	storeDir := t.TempDir()
	walDir := filepath.Join(t.TempDir(), "wal")
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
	return s, ing, storeDir, walDir
}

// smallCorpora generates one modest document per corpus.
func smallCorpora(t testing.TB) map[string][]byte {
	t.Helper()
	docs := make(map[string][]byte)
	for _, c := range corpus.Catalog() {
		scale := c.DefaultScale / 40
		if scale < 3 {
			scale = 3
		}
		docs[c.Name] = c.Generate(scale, 7)
	}
	return docs
}

// assertGolden checks that the served result of every corpus query
// equals direct core.Document evaluation, byte for byte on the paths.
func assertGolden(t *testing.T, s *store.Store, docs map[string][]byte, stage string) {
	t.Helper()
	for _, c := range corpus.Catalog() {
		for qi, q := range c.Queries {
			want, err := core.Load(docs[c.Name]).Query(q)
			if err != nil {
				t.Fatalf("%s: %s Q%d direct: %v", stage, c.Name, qi+1, err)
			}
			got, err := s.QueryCtx(context.Background(), c.Name, q)
			if err != nil {
				t.Fatalf("%s: %s Q%d served: %v", stage, c.Name, qi+1, err)
			}
			if got.SelectedTree != want.SelectedTree {
				t.Errorf("%s: %s Q%d: served %d nodes, direct %d", stage, c.Name, qi+1, got.SelectedTree, want.SelectedTree)
			}
			const maxPaths = 1 << 20
			if g, w := got.Paths(maxPaths), want.Paths(maxPaths); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: %s Q%d: served paths differ from direct", stage, c.Name, qi+1)
			}
		}
	}
}

// TestGoldenIngestThenCompact is the end-to-end equivalence gate for the
// write path: every corpus × query pair must evaluate identically to
// direct core.Document evaluation at both stages of a document's life —
// served from the memtable right after Add (pre-compaction), and served
// from the .xca archive after Flush.
func TestGoldenIngestThenCompact(t *testing.T) {
	docs := smallCorpora(t)
	s, ing, storeDir, _ := openPair(t, ingest.Options{})
	defer ing.Close()

	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}
	if got := s.Len(); got != len(docs) {
		t.Fatalf("store sees %d docs, want %d", got, len(docs))
	}
	assertGolden(t, s, docs, "memtable")

	st := ing.Stats()
	if st.LiveDocs != len(docs) || st.Compactions != 0 {
		t.Fatalf("pre-flush stats %+v: want %d live docs, 0 compactions", st, len(docs))
	}

	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st = ing.Stats()
	if st.LiveDocs != 0 || st.CompactedDocs != uint64(len(docs)) {
		t.Fatalf("post-flush stats %+v: want empty memtable, %d compacted", st, len(docs))
	}
	for name := range docs {
		if _, err := os.Stat(filepath.Join(storeDir, name+store.Ext)); err != nil {
			t.Fatalf("no archive for %s after flush: %v", name, err)
		}
	}
	assertGolden(t, s, docs, "archive")
	// Compaction seeds the cache with the decoded documents it already
	// holds: the post-flush queries above must all have been warm.
	if st := s.Stats(); st.DocMisses != 0 {
		t.Fatalf("post-compaction queries decoded %d archives; want 0 (warm seed)", st.DocMisses)
	}

	// The WAL has been retired: a fresh store over the directory serves
	// everything from archives alone.
	s2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, s2, docs, "reopened archives")
}

// TestSealedGenerationsStayQueryable forces a seal on every Add (1-byte
// memtable budget) so documents migrate active → sealed → archive while
// we query: results must be golden at every stage.
func TestSealedGenerationsStayQueryable(t *testing.T) {
	docs := smallCorpora(t)
	s, ing, _, _ := openPair(t, ingest.Options{MemTableBytes: 1})
	defer ing.Close()
	for name, doc := range docs {
		if err := ing.Add(name, doc); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
		// Query immediately, racing the background compactor.
		c, err := corpus.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Load(doc).Query(c.Queries[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.QueryCtx(context.Background(), name, c.Queries[1])
		if err != nil {
			t.Fatalf("query %s mid-compaction: %v", name, err)
		}
		if got.SelectedTree != want.SelectedTree {
			t.Errorf("%s mid-compaction: %d nodes, want %d", name, got.SelectedTree, want.SelectedTree)
		}
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	assertGolden(t, s, docs, "after pressure-driven compaction")
}

func TestDeleteSemantics(t *testing.T) {
	docs := smallCorpora(t)
	s, ing, storeDir, _ := openPair(t, ingest.Options{})
	defer ing.Close()

	if err := ing.Delete("DBLP"); err == nil {
		t.Fatal("deleting an unknown document must fail")
	}
	if err := ing.Add("DBLP", docs["DBLP"]); err != nil {
		t.Fatal(err)
	}
	// Tombstone a memtable-only document.
	if err := ing.Delete("DBLP"); err != nil {
		t.Fatal(err)
	}
	if s.Has("DBLP") {
		t.Fatal("tombstoned document still visible")
	}
	if _, err := s.QueryCtx(context.Background(), "DBLP", "//article"); err == nil {
		t.Fatal("query of tombstoned document must fail")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("catalog length %d, want 0", got)
	}

	// Tombstone an archived document: add, flush (archive exists), delete,
	// flush (archive removed).
	if err := ing.Add("OMIM", docs["OMIM"]); err != nil {
		t.Fatal(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(storeDir, "OMIM"+store.Ext)
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := ing.Delete("OMIM"); err != nil {
		t.Fatal(err)
	}
	if s.Has("OMIM") {
		t.Fatal("tombstoned archived document still visible")
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("archive survives tombstone compaction: %v", err)
	}
	if len(s.Names()) != 0 {
		t.Fatalf("names after delete-compaction: %v", s.Names())
	}
}

func TestReingestReplaces(t *testing.T) {
	s, ing, _, _ := openPair(t, ingest.Options{})
	defer ing.Close()

	v1 := []byte(`<dblp><article><author>Codd</author></article></dblp>`)
	v2 := []byte(`<dblp><article><author>Codd</author></article><article><author>Codd</author></article></dblp>`)
	if err := ing.Add("d", v1); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryCtx(context.Background(), "d", `//article[author["Codd"]]`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != 1 {
		t.Fatalf("v1: %d matches, want 1", res.SelectedTree)
	}
	// Replace live; then archive v2 and replace the archive too.
	if err := ing.Add("d", v2); err != nil {
		t.Fatal(err)
	}
	if res, err = s.QueryCtx(context.Background(), "d", `//article[author["Codd"]]`); err != nil || res.SelectedTree != 2 {
		t.Fatalf("v2 live: %v matches, err %v; want 2", res, err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err = s.QueryCtx(context.Background(), "d", `//article[author["Codd"]]`); err != nil || res.SelectedTree != 2 {
		t.Fatalf("v2 archived: %v, err %v; want 2 matches", res, err)
	}
	if err := ing.Add("d", v1); err != nil {
		t.Fatal(err)
	}
	if res, err = s.QueryCtx(context.Background(), "d", `//article[author["Codd"]]`); err != nil || res.SelectedTree != 1 {
		t.Fatalf("v1 shadowing archive: %v, err %v; want 1 match", res, err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, err = s.QueryCtx(context.Background(), "d", `//article[author["Codd"]]`); err != nil || res.SelectedTree != 1 {
		t.Fatalf("v1 re-archived: %v, err %v; want 1 match", res, err)
	}
}

func TestRejectsInvalidInput(t *testing.T) {
	s, ing, _, _ := openPair(t, ingest.Options{})
	defer ing.Close()

	if err := ing.Add("bad", []byte("<open>no close")); err == nil {
		t.Fatal("malformed XML must be rejected")
	}
	if s.Has("bad") {
		t.Fatal("rejected document must not be visible")
	}
	for _, name := range []string{"", ".hidden", "a/b", "a b", "a\x00b", string(make([]byte, 300))} {
		if err := ing.Add(name, []byte("<a/>")); err == nil {
			t.Fatalf("name %q must be rejected", name)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Add("x", []byte("<a/>")); err != ingest.ErrClosed {
		t.Fatalf("add after close: %v, want ErrClosed", err)
	}
	if err := ing.Delete("x"); err != ingest.ErrClosed {
		t.Fatalf("delete after close: %v, want ErrClosed", err)
	}
	if err := ing.Flush(); err != ingest.ErrClosed {
		t.Fatalf("flush after close: %v, want ErrClosed", err)
	}
}

// TestConcurrentIngestWhileQuery is the -race gate for the
// coordination-free claim: writers add and delete documents while
// readers run single-document queries and whole-catalog fan-outs, with
// an aggressive memtable budget so sealing and compaction race the
// reads.
func TestConcurrentIngestWhileQuery(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Generate(30, 3)
	want, err := core.Load(doc).Query(c.Queries[1])
	if err != nil {
		t.Fatal(err)
	}

	s, ing, _, _ := openPair(t, ingest.Options{MemTableBytes: 1 << 14})
	defer ing.Close()
	if err := ing.Add("seed", doc); err != nil {
		t.Fatal(err)
	}

	const writers, readers, perWriter = 4, 4, 12
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				if err := ing.Add(name, doc); err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if err := ing.Delete(name); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				res, err := s.QueryCtx(context.Background(), "seed", c.Queries[1])
				if err != nil {
					errCh <- err
					return
				}
				if res.SelectedTree != want.SelectedTree {
					errCh <- fmt.Errorf("seed: %d matches, want %d", res.SelectedTree, want.SelectedTree)
					return
				}
				// Fan-out across whatever catalog exists this instant.
				// Writer documents may race their own deletion between
				// the catalog snapshot and the lookup (reported per
				// document, by design); the stable seed document must
				// always succeed.
				batch, err := s.QueryAllCtx(context.Background(), c.Queries[1])
				if err != nil {
					errCh <- err
					return
				}
				for _, br := range batch {
					if br.Err != nil && br.Name == "seed" {
						errCh <- fmt.Errorf("%s: %w", br.Name, br.Err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st := ing.Stats()
	if st.LiveDocs != 0 || st.LastError != "" {
		t.Fatalf("after final flush: %+v", st)
	}
}
