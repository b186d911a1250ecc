package store_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/corpus"
	"repro/internal/store"
)

// pathKeyedDir holds archives written by the splitter that keyed every
// value container by its root-to-element path ("/a/b/c", "/a/b/@x") and
// labelled each text leaf "text:<path>". They pin that layout: stores
// keep serving such archives after the splitter's keys change.
const pathKeyedDir = "testdata/pathkeyed"

// libraryDoc repeats tags at different paths (title under book, series,
// journal and issue) and carries attributes, including one attribute
// name on two different tags and mixed content.
const libraryDoc = `<library region="north"><book id="b1" lang="en"><title>Data on the Web</title><author>Abiteboul</author><note kind="review">old <b>bold</b> text</note></book><book id="b2"><title lang="de">XML Kompression</title><author>Buneman</author><author>Koch</author><series><title>VLDB</title><note>short</note></series></book><journal id="j1"><title>TODS</title><issue no="3"><title>Compressed XML</title><author>Grohe</author><note kind="errata">XML</note></issue></journal></library>`

// libraryQueries exercise libraryDoc's repeated tags and text.
var libraryQueries = []string{
	`//title["XML"]`,
	`//book[author["Koch"]]/title`,
	`/library/journal/issue/title`,
	`//note["bold"]`,
	`//*[note["XML"]]/title`,
	`//title[following-sibling::author["Grohe"]]`,
}

// pathKeyedSources are the documents the golden archives were split
// from.
func pathKeyedSources() map[string][]byte {
	return map[string][]byte{
		"Library":   []byte(libraryDoc),
		"TreeBank":  corpus.TreeBank(8, 7),
		"SwissProt": corpus.SwissProt(8, 7),
	}
}

func reconstruct(t *testing.T, a *container.Archive) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := a.Reconstruct(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestPathKeyedArchiveGolden opens archives written with path-keyed
// containers: each must reconstruct to the same XML as its source
// document split by the current code, and every query must get a body
// byte-equal to the one a store over freshly split archives serves.
func TestPathKeyedArchiveGolden(t *testing.T) {
	docs := pathKeyedSources()
	oldDir := t.TempDir()
	for name, doc := range docs {
		data, err := os.ReadFile(filepath.Join(pathKeyedDir, name+store.Ext))
		if err != nil {
			t.Fatal(err)
		}
		old, err := codec.DecodeArchiveBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nested := false
		for _, k := range old.Store.Keys() {
			nested = nested || strings.Count(k, "/") > 2
		}
		if !nested {
			t.Fatalf("%s: golden has no path-keyed container (keys %q)", name, old.Store.Keys())
		}
		cur, err := container.Split(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reconstruct(t, old), reconstruct(t, cur); !bytes.Equal(got, want) {
			t.Fatalf("%s: path-keyed archive reconstructs to %d bytes, differing from the current split's %d", name, len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(oldDir, name+store.Ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	open := func(dir string) *store.Store {
		s, err := store.Open(dir, store.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	oldStore, curStore := open(oldDir), open(packDir(t, docs))
	queries := append(allQueries(), libraryQueries...)
	var reqs []store.Request
	for _, q := range queries {
		reqs = append(reqs, store.Request{Query: q, Max: 100})
		for name := range docs {
			reqs = append(reqs, store.Request{Query: q, Doc: name, Max: 100})
		}
	}
	var matches uint64
	for _, req := range reqs {
		got, n := doBody(t, oldStore, req)
		want, _ := doBody(t, curStore, req)
		if got != want {
			t.Fatalf("doc %q query %s:\npath-keyed: %s\n   current: %s", req.Doc, req.Query, got, want)
		}
		matches += n
	}
	if matches == 0 {
		t.Fatal("no request selected anything")
	}
}

// doBody runs req and returns the body /query would serve, timings
// zeroed, and the matches it reports.
func doBody(t *testing.T, s *store.Store, req store.Request) (string, uint64) {
	t.Helper()
	resp, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("doc %q query %s: %v", req.Doc, req.Query, err)
	}
	rec := httptest.NewRecorder()
	var matches uint64
	if resp.Doc != nil {
		store.WriteJSON(rec, 200, resp.Doc)
		matches = resp.Doc.Matches
	} else {
		store.WriteJSON(rec, 200, resp.Fanout)
		matches = resp.Fanout.TotalMatches
	}
	return string(timingField.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`))), matches
}

// TestPathKeyedDocChargesLabelWords checks the cache's charge for a
// wide-schema archive: every archive vertex holds a label bitset as wide
// as the schema, and the document must be charged at least those words
// and its value bytes.
func TestPathKeyedDocChargesLabelWords(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(pathKeyedDir, "TreeBank"+store.Ext))
	if err != nil {
		t.Fatal(err)
	}
	a, err := codec.DecodeArchiveBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var words int64
	for _, v := range a.Skeleton.Verts {
		words += int64(len(v.Labels))
	}
	if words <= int64(a.Skeleton.NumVertices()) {
		t.Fatalf("golden schema of %d names fits one label word", a.Skeleton.Schema.Len())
	}
	d, err := store.NewDoc("TreeBank", a)
	if err != nil {
		t.Fatal(err)
	}
	if floor := 8*words + int64(a.Store.TotalBytes()); d.MemBytes() < floor {
		t.Fatalf("MemBytes = %d, below %d label words plus %d value bytes", d.MemBytes(), words, a.Store.TotalBytes())
	}
}
