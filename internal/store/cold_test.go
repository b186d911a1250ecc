package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/corpus"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// packedDir builds a loose store over docs, migrates everything into
// bundles, and returns the directory (the returned store is closed).
func packedDir(t *testing.T, docs map[string][]byte) string {
	t.Helper()
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.PackLoose(store.PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packed != len(docs) {
		t.Fatalf("packed %d of %d docs (stats %+v)", st.Packed, len(docs), st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// assertStoresAgree runs q as a fan-out on both stores and requires
// identical results document by document: same names, same selected
// counts, same addresses.
func assertStoresAgree(t *testing.T, want, got *store.Store, q, stage string) {
	t.Helper()
	wr, err := want.QueryAll(q)
	if err != nil {
		t.Fatalf("%s: %s on loose store: %v", stage, q, err)
	}
	gr, err := got.QueryAll(q)
	if err != nil {
		t.Fatalf("%s: %s on bundled store: %v", stage, q, err)
	}
	if len(wr) != len(gr) {
		t.Fatalf("%s: %s: loose answers %d docs, bundled %d", stage, q, len(wr), len(gr))
	}
	for i := range wr {
		w, g := wr[i], gr[i]
		if w.Name != g.Name {
			t.Fatalf("%s: %s: doc %d is %q loose vs %q bundled", stage, q, i, w.Name, g.Name)
		}
		if (w.Err == nil) != (g.Err == nil) {
			t.Fatalf("%s: %s %s: loose err %v, bundled err %v", stage, q, w.Name, w.Err, g.Err)
		}
		if w.Err != nil {
			continue
		}
		if w.Result.SelectedTree != g.Result.SelectedTree {
			t.Errorf("%s: %s %s: loose selects %d, bundled %d", stage, q, w.Name, w.Result.SelectedTree, g.Result.SelectedTree)
		}
		const maxPaths = 1 << 20
		if !reflect.DeepEqual(w.Result.Paths(maxPaths), g.Result.Paths(maxPaths)) {
			t.Errorf("%s: %s %s: addresses differ between tiers", stage, q, w.Name)
		}
	}
}

// allQueries is every experiment query of every corpus.
func allQueries() []string {
	var qs []string
	for _, c := range corpus.Catalog() {
		qs = append(qs, c.Queries[:]...)
	}
	return qs
}

// TestBundledGoldenEquality is the cold tier's equivalence gate: over
// every corpus × query, a store serving from bundles must answer
// exactly like one serving the same documents as loose archives — with
// the synopsis index pruning (default) and without it.
func TestBundledGoldenEquality(t *testing.T) {
	docs := smallCorpora(t)
	looseDir, bundledDir := packDir(t, docs), packedDir(t, docs)

	for _, tc := range []struct {
		stage string
		opts  store.Options
	}{
		{"pruned", store.Options{}},
		{"unpruned", store.Options{DisableSynopsis: true}},
	} {
		loose, err := store.Open(looseDir, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		bundled, err := store.Open(bundledDir, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		st := bundled.Stats()
		if st.BundledDocs != len(docs) || st.Bundles == 0 {
			t.Fatalf("%s: bundled store stats %+v: want %d bundled docs", tc.stage, st, len(docs))
		}
		for _, q := range allQueries() {
			assertStoresAgree(t, loose, bundled, q, tc.stage)
		}
		if tc.stage == "pruned" && bundled.Stats().PrunePruned == 0 {
			t.Fatal("synopsis index pruned nothing over the bundled tier")
		}
		loose.Close()
		bundled.Close()
	}
}

// TestBundledCatalogCollapses is the cold tier's reason to exist, at a
// catalog size where it matters: 1,000 small documents packed into
// bundles leave a handful of files instead of 2,000 (archive + sidecar
// each), answer a broad and a rare query exactly like the loose tier,
// and the rare query prunes the same documents over bundles as over
// loose files.
func TestBundledCatalogCollapses(t *testing.T) {
	const n, rareDocs = 1000, 16
	docs := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		rare := ""
		if i < rareDocs {
			rare = fmt.Sprintf("<rare>r%d</rare>", i)
		}
		docs[fmt.Sprintf("doc%06d", i)] = []byte(fmt.Sprintf(
			"<entry><id>n%d</id><val>v%d</val><val>w%d</val>%s</entry>", i, i%97, i%89, rare))
	}
	looseDir, bundledDir := packDir(t, docs), packedDir(t, docs)

	des, err := os.ReadDir(bundledDir)
	if err != nil {
		t.Fatal(err)
	}
	if max := n/100 + 2; len(des) > max {
		t.Fatalf("bundled catalog of %d docs holds %d files, want <= %d", n, len(des), max)
	}

	loose, err := store.Open(looseDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loose.Close()
	bundled, err := store.Open(bundledDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bundled.Close()
	if st := bundled.Stats(); st.BundledDocs != n {
		t.Fatalf("bundled store serves %d bundled docs, want %d: %+v", st.BundledDocs, n, st)
	}

	assertStoresAgree(t, loose, bundled, `//entry[id]`, "broad")
	lb, bb := loose.Stats().PrunePruned, bundled.Stats().PrunePruned
	assertStoresAgree(t, loose, bundled, `//entry[rare]`, "rare")
	lp, bp := loose.Stats().PrunePruned-lb, bundled.Stats().PrunePruned-bb
	if lp != bp || lp < n-rareDocs {
		t.Fatalf("rare query pruned %d docs loose, %d bundled; want equal and >= %d", lp, bp, n-rareDocs)
	}
	t.Logf("%d docs: %d files bundled, rare query pruned %d = %d", n, len(des), lp, bp)
}

// TestBundledSurvivesTornIndex simulates the crash the needle index
// exists to absorb: with the .xbi files missing or torn, the store must
// rebuild them by scanning needle headers and serve identical results.
func TestBundledSurvivesTornIndex(t *testing.T) {
	docs := smallCorpora(t)
	looseDir, bundledDir := packDir(t, docs), packedDir(t, docs)

	damaged := 0
	des, err := os.ReadDir(bundledDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), bundle.IndexExt) {
			continue
		}
		path := filepath.Join(bundledDir, de.Name())
		if damaged%2 == 0 {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no needle indexes found to damage")
	}

	loose, err := store.Open(looseDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bundled, err := store.Open(bundledDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bundled.Close()
	if st := bundled.Stats(); st.BundleRebuilds == 0 {
		t.Fatalf("no index rebuilds reported after damaging %d indexes: %+v", damaged, st)
	}
	for _, q := range allQueries() {
		assertStoresAgree(t, loose, bundled, q, "post-crash")
	}
}

// TestLooseWinsOverBundled: a loose archive of the same name shadows a
// bundled needle (the crash-consistency precedence every pack and
// replacement step relies on), and open-time hygiene tombstones the
// shadowed copy.
func TestLooseWinsOverBundled(t *testing.T) {
	docs := smallCorpora(t)
	dir := packedDir(t, docs)

	// Drop a replacement loose archive for one name: a different corpus
	// document, so serving the wrong tier is detectable.
	name := "DBLP"
	replacement := map[string][]byte{name: docs["Shakespeare"]}
	srcDir := packDir(t, replacement)
	data, err := os.ReadFile(filepath.Join(srcDir, name+store.Ext))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+store.Ext), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.BundledDocs != len(docs)-1 {
		t.Fatalf("bundled docs = %d, want %d (loose replacement must win)", st.BundledDocs, len(docs)-1)
	}
	if st.BundleDeadBytes == 0 {
		t.Fatal("shadowed bundled copy was not tombstoned by open hygiene")
	}
	// Shakespeare content has SPEECH elements, DBLP content has none: a
	// positive match under the DBLP name proves the loose tier won.
	res, err := s.Query(name, `//SPEECH`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree == 0 {
		t.Fatal("replacement loose content is not being served")
	}
}

// TestEraseBothTiers: Erase must delete a loose document's files and
// tombstone a bundled one's needle, and the deletion must survive a
// reopen in both cases.
func TestEraseBothTiers(t *testing.T) {
	docs := smallCorpora(t)

	t.Run("loose", func(t *testing.T) {
		dir := packDir(t, docs)
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Erase("DBLP"); err != nil {
			t.Fatal(err)
		}
		if s.Has("DBLP") {
			t.Fatal("erased document still catalogued")
		}
		if _, err := os.Stat(filepath.Join(dir, "DBLP"+store.Ext)); !os.IsNotExist(err) {
			t.Fatalf("loose archive survived erase: %v", err)
		}
		if _, err := os.Stat(synopsis.SidecarPath(filepath.Join(dir, "DBLP"+store.Ext))); !os.IsNotExist(err) {
			t.Fatalf("sidecar survived erase: %v", err)
		}
	})

	t.Run("bundled", func(t *testing.T) {
		dir := packedDir(t, docs)
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Erase("DBLP"); err != nil {
			t.Fatal(err)
		}
		if s.Has("DBLP") {
			t.Fatal("erased document still catalogued")
		}
		if st := s.Stats(); st.BundleDeadBytes == 0 {
			t.Fatalf("erase left no dead bytes: %+v", st)
		}
		s.Close()

		s2, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if s2.Has("DBLP") {
			t.Fatal("tombstoned document resurrected by reopen")
		}
		if got, want := s2.Len(), len(docs)-1; got != want {
			t.Fatalf("reopened catalog has %d docs, want %d", got, want)
		}
	})
}

// TestAuditReclaimsDeadBundles: after erasing documents, an audit pass
// must rewrite over-dead bundles, shrink the tier, and keep every
// surviving document serving identically.
func TestAuditReclaimsDeadBundles(t *testing.T) {
	docs := smallCorpora(t)
	looseDir, bundledDir := packDir(t, docs), packedDir(t, docs)

	loose, err := store.Open(looseDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bundled, err := store.Open(bundledDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bundled.Close()

	victim := "DBLP"
	if err := loose.Erase(victim); err != nil {
		t.Fatal(err)
	}
	if err := bundled.Erase(victim); err != nil {
		t.Fatal(err)
	}
	before := bundled.Stats()
	ast, err := bundled.AuditBundles(0.0001) // any dead byte triggers a rewrite
	if err != nil {
		t.Fatal(err)
	}
	if ast.Rewritten+ast.Removed == 0 {
		t.Fatalf("audit reclaimed nothing: %+v", ast)
	}
	after := bundled.Stats()
	if after.BundleDeadBytes != 0 {
		t.Fatalf("dead bytes %d after audit, want 0", after.BundleDeadBytes)
	}
	if after.BundleBytes >= before.BundleBytes {
		t.Fatalf("audit did not shrink the tier: %d -> %d bytes", before.BundleBytes, after.BundleBytes)
	}
	for _, q := range allQueries() {
		assertStoresAgree(t, loose, bundled, q, "post-audit")
	}

	// The rewrite must also survive a reopen.
	bundled.Close()
	reopened, err := store.Open(bundledDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, q := range allQueries() {
		assertStoresAgree(t, loose, reopened, q, "post-audit reopen")
	}
}

// TestSidecarWriteFailureSurfaced: when the synopsis sidecar cannot be
// persisted at open, the store must keep serving (synopsis from memory)
// but count and expose the failure instead of discarding it — the
// silent-discard regression. A directory squatting the sidecar path
// makes the rename fail even when running as root.
func TestSidecarWriteFailureSurfaced(t *testing.T) {
	docs := map[string][]byte{"only": []byte(`<a><b>x</b></a>`)}
	dir := packDir(t, docs)
	squat := synopsis.SidecarPath(filepath.Join(dir, "only"+store.Ext))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(squat, "occupied"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SynopsisWriteErrors == 0 {
		t.Fatalf("sidecar write failure was discarded: %+v", st)
	}
	if st.SynopsisBuilds == 0 || st.SynopsisDocs != 1 {
		t.Fatalf("synopsis should still serve from memory: %+v", st)
	}
	// The document itself is unaffected.
	res, err := s.Query("only", `//b`)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedTree != 1 {
		t.Fatalf("selected %d, want 1", res.SelectedTree)
	}
}

// TestPackConcurrentWithQueries races PackLoose against a fan-out load:
// readers must never observe a missing document while the tier flips
// under them (the Doc retry path). Run under -race in CI.
func TestPackConcurrentWithQueries(t *testing.T) {
	docs := smallCorpora(t)
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, err := s.PackLoose(store.PackOptions{})
		done <- err
	}()
	for i := 0; i < 20; i++ {
		results, err := s.QueryAll(`//author`)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range results {
			if br.Err != nil {
				t.Fatalf("%s failed mid-pack: %v", br.Name, br.Err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BundledDocs != len(docs) {
		t.Fatalf("pack finished with %d bundled docs, want %d", st.BundledDocs, len(docs))
	}
}
