package store_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/store"
)

// packDir writes each document as name.xca under a fresh directory.
func packDir(t *testing.T, docs map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, doc := range docs {
		a, err := container.Split(doc)
		if err != nil {
			t.Fatalf("split %s: %v", name, err)
		}
		f, err := os.Create(filepath.Join(dir, name+store.Ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := codec.EncodeArchive(f, a); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// smallCorpora generates one modest document per corpus.
func smallCorpora(t *testing.T) map[string][]byte {
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

func TestOpenCatalog(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	// A non-archive file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(docs) {
		t.Fatalf("catalog has %d docs, want %d", s.Len(), len(docs))
	}
	st := s.Stats()
	if st.Loaded != 0 || st.DocMisses != 0 {
		t.Fatalf("open must be lazy, got %+v", st)
	}
	for _, info := range s.Docs() {
		if info.Loaded || info.FileBytes <= 0 {
			t.Fatalf("catalog row %+v: want unloaded with a file size", info)
		}
	}
}

// TestGoldenVsDocument is the end-to-end equivalence gate: for every
// corpus and every experiment query, the served result (archive decode +
// derived instances, no XML on the serve path) must agree
// with core.Document.Query on the original XML — same selected tree
// count, same addresses. A second pass repeats the sweep on a store
// whose one-byte cache budget evicts on every load, so answers served
// from freshly re-decoded documents are held to the same goldens.
func TestGoldenVsDocument(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	for _, tc := range []struct {
		stage string
		opts  store.Options
	}{
		{"cached", store.Options{}},
		{"evicting", store.Options{CacheBytes: 1}},
	} {
		s, err := store.Open(dir, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corpus.Catalog() {
			for qi, q := range c.Queries {
				want, err := core.Load(docs[c.Name]).Query(q)
				if err != nil {
					t.Fatalf("%s Q%d direct: %v", c.Name, qi+1, err)
				}
				got, err := s.QueryCtx(context.Background(), c.Name, q)
				if err != nil {
					t.Fatalf("%s: %s Q%d served: %v", tc.stage, c.Name, qi+1, err)
				}
				if got.SelectedTree != want.SelectedTree {
					t.Errorf("%s: %s Q%d: served %d nodes, direct %d", tc.stage, c.Name, qi+1, got.SelectedTree, want.SelectedTree)
				}
				const maxPaths = 1 << 20
				if g, w := got.Paths(maxPaths), want.Paths(maxPaths); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: %s Q%d: served paths %v, direct %v", tc.stage, c.Name, qi+1, g, w)
				}
			}
		}
		if st := s.Stats(); tc.opts.CacheBytes > 0 && st.Evictions == 0 {
			t.Errorf("%s: no evictions under a %d-byte budget: %+v", tc.stage, tc.opts.CacheBytes, st)
		}
		s.Close()
	}
}

func TestQueryAllMatchesPerDocQueries(t *testing.T) {
	docs := smallCorpora(t)
	s, err := store.Open(packDir(t, docs), store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One tag-only query (shared frozen base) and one with a string
	// condition (per-document distillation path).
	for _, q := range []string{`//author`, `//article[author["Codd"]]`} {
		results, err := s.QueryAllCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != s.Len() {
			t.Fatalf("%d results, want %d", len(results), s.Len())
		}
		for _, br := range results {
			if br.Err != nil {
				t.Fatalf("%s: %v", br.Name, br.Err)
			}
			want, err := s.QueryCtx(context.Background(), br.Name, q)
			if err != nil {
				t.Fatal(err)
			}
			if br.Result.SelectedTree != want.SelectedTree {
				t.Errorf("%s %s: fan-out %d, direct %d", br.Name, q, br.Result.SelectedTree, want.SelectedTree)
			}
			if g, w := br.Result.Paths(1000), want.Paths(1000); !reflect.DeepEqual(g, w) {
				t.Errorf("%s %s: fan-out paths %v, direct %v", br.Name, q, g, w)
			}
		}
	}
}

func TestEvictionUnderByteBudget(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)

	// Measure one document to pick a budget that holds ~2 of them.
	probe, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := probe.Names()
	var maxMem, total int64
	for _, n := range names {
		d, err := probe.Doc(n)
		if err != nil {
			t.Fatal(err)
		}
		if d.MemBytes() > maxMem {
			maxMem = d.MemBytes()
		}
		total += d.MemBytes()
	}

	// A budget below the corpus total forces evictions, but at least the
	// largest document must fit so every load settles under budget.
	budget := total / 2
	if budget < maxMem {
		budget = maxMem
	}
	s, err := store.Open(dir, store.Options{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := s.Doc(n); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.CacheBytes > budget && st.Loaded > 1 {
			t.Fatalf("cache %d bytes over budget %d with %d docs loaded", st.CacheBytes, budget, st.Loaded)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with budget %d over %d docs: %+v", budget, len(names), st)
	}
	if st.Loaded >= len(names) {
		t.Fatalf("all %d docs still cached under budget %d", st.Loaded, budget)
	}

	// An evicted document must be transparently reloadable.
	missesBefore := st.DocMisses
	if _, err := s.QueryCtx(context.Background(), names[0], `//author`); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DocMisses; got == missesBefore {
		// names[0] may still be cached (LRU order); force the point by
		// touching every name and checking misses grew overall.
		for _, n := range names {
			if _, err := s.Doc(n); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Stats().DocMisses; got <= missesBefore {
			t.Fatalf("evicted documents were not reloaded (misses %d -> %d)", missesBefore, got)
		}
	}
}

func TestOversizedDocumentStaysServable(t *testing.T) {
	docs := smallCorpora(t)
	s, err := store.Open(packDir(t, docs), store.Options{CacheBytes: 1}) // everything is oversized
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Names() {
		if _, err := s.QueryCtx(context.Background(), n, `//author`); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if st := s.Stats(); st.Loaded > 1 {
			t.Fatalf("budget 1 must keep at most one doc, has %d", st.Loaded)
		}
	}
}

func TestProgramCache(t *testing.T) {
	docs := smallCorpora(t)
	s, err := store.Open(packDir(t, docs), store.Options{ProgramCache: 2})
	if err != nil {
		t.Fatal(err)
	}
	name := s.Names()[0]
	queries := []string{`//author`, `//title`, `//year`}
	for _, q := range queries {
		if _, err := s.QueryCtx(context.Background(), name, q); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.ProgramsCached > 2 {
		t.Fatalf("program cache holds %d, cap 2", st.ProgramsCached)
	}
	if st.ProgramMisses != 3 {
		t.Fatalf("program misses = %d, want 3", st.ProgramMisses)
	}
	// Re-running the most recent query must hit.
	if _, err := s.QueryCtx(context.Background(), name, queries[2]); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ProgramHits; got != 1 {
		t.Fatalf("program hits = %d, want 1", got)
	}
	// A malformed query is a compile error, not a cache entry.
	if _, err := s.QueryCtx(context.Background(), name, `///`); err == nil {
		t.Fatal("malformed query did not fail")
	}
}

func TestUnknownDocument(t *testing.T) {
	s, err := store.Open(packDir(t, map[string][]byte{"a": []byte(`<a/>`)}), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCtx(context.Background(), "nope", `//a`); err == nil {
		t.Fatal("querying an unknown document did not fail")
	}
}

// A garbage .xca must not fail Open and must not be served: it is
// skipped, counted, queued as a suspect naming the file, and the next
// scrub pass moves it into quarantine/ with a reason file. Healthy
// neighbours keep serving throughout.
func TestCorruptArchiveSkippedAtOpen(t *testing.T) {
	dir := packDir(t, map[string][]byte{"good": []byte(`<a><b/></a>`)})
	path := filepath.Join(dir, "bad"+store.Ext)
	if err := os.WriteFile(path, []byte("XCA1 this is not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("a corrupt archive failed the whole open: %v", err)
	}
	defer s.Close()
	if _, err := s.Doc("bad"); err == nil {
		t.Fatal("skipped corrupt archive was still served")
	}
	if _, err := s.Doc("good"); err != nil {
		t.Fatalf("healthy neighbour not served: %v", err)
	}
	if got := s.Stats().OpenSkippedCorrupt; got != 1 {
		t.Fatalf("open_skipped_corrupt = %d, want 1", got)
	}
	sus := s.Suspects()
	if len(sus) != 1 || sus[0].Name != "bad" || sus[0].Path != path {
		t.Fatalf("suspects = %+v, want one naming %q at %s", sus, "bad", path)
	}

	rep, err := s.Scrub(context.Background(), store.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 {
		t.Fatalf("scrub quarantined %d, want 1 (report %+v)", rep.Quarantined, rep)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt archive still in the store directory: %v", err)
	}
	qpath := filepath.Join(dir, store.QuarantineDir, "bad"+store.Ext)
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("quarantined artifact missing: %v", err)
	}
	reason, err := os.ReadFile(qpath + ".reason")
	if err != nil {
		t.Fatalf("reason file missing: %v", err)
	}
	if !containsStr(string(reason), path) {
		t.Fatalf("reason file %q does not name the source %q", reason, path)
	}
	if len(s.Suspects()) != 0 {
		t.Fatalf("suspect queue not drained: %+v", s.Suspects())
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && len(err.Error()) >= len(sub) && containsStr(err.Error(), sub)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestConcurrentQueries hammers one store from many goroutines with a
// tiny cache budget, so loads, hits, evictions and both QueryAll paths
// race against each other. Run under -race in CI.
func TestConcurrentQueries(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	probe, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := probe.Names()
	var total int64
	for _, n := range names {
		d, err := probe.Doc(n)
		if err != nil {
			t.Fatal(err)
		}
		total += d.MemBytes()
	}

	s, err := store.Open(dir, store.Options{CacheBytes: total / 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{`//author`, `//PLAYER`, `//article[author["Codd"]]`, `/dblp/article/url`}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				name := names[(g+i)%len(names)]
				q := queries[(g*7+i)%len(queries)]
				if _, err := s.QueryCtx(context.Background(), name, q); err != nil {
					errs <- fmt.Errorf("%s %s: %w", name, q, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := s.QueryAllCtx(context.Background(), queries[g]); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Queries == 0 || st.DocMisses == 0 {
		t.Fatalf("implausible stats after concurrent run: %+v", st)
	}
}

// TestStringQueriesChargeMemo: the merged-instance memo a string query
// creates must be charged against the cache budget.
func TestStringQueriesChargeMemo(t *testing.T) {
	docs := smallCorpora(t)
	s, err := store.Open(packDir(t, docs), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCtx(context.Background(), "DBLP", `//author`); err != nil { // load, tag-only
		t.Fatal(err)
	}
	base := s.Stats().CacheBytes
	if _, err := s.QueryCtx(context.Background(), "DBLP", `//article[author["Codd"]]`); err != nil {
		t.Fatal(err)
	}
	grown := s.Stats().CacheBytes
	if grown <= base {
		t.Fatalf("cache bytes %d -> %d: string-condition memo not charged", base, grown)
	}
	// Re-running the same condition set hits the memo: no second merged
	// instance is distilled. The total charge may still creep by a few
	// bytes (the reordered program can reach a label before the overlay
	// rewrites, caching one more shared label column on the merged
	// frozen), so the memo size is what must hold still.
	d, err := s.Doc("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	mv, me := d.Prepared().MemoSize()
	if _, err := s.QueryCtx(context.Background(), "DBLP", `//article[author["Codd"]]/title`); err != nil {
		t.Fatal(err)
	}
	if mv2, me2 := d.Prepared().MemoSize(); mv2 != mv || me2 != me {
		t.Fatalf("memo grew on hit: (%d,%d) -> (%d,%d)", mv, me, mv2, me2)
	}
	if again := s.Stats().CacheBytes; again < grown || again > grown+1024 {
		t.Fatalf("cache bytes %d -> %d on memo hit", grown, again)
	}
}
