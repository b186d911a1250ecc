package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/store"
)

func newTestServer(t *testing.T, docs map[string][]byte, opts store.Options) (*httptest.Server, *store.Store) {
	t.Helper()
	s, err := store.Open(packDir(t, docs), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewHandler(s, store.ServerOptions{}))
	t.Cleanup(srv.Close)
	return srv, s
}

func getJSON(t *testing.T, rawURL string, out any) int {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return resp.StatusCode
}

func TestQueryEndpoint(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	doc := c.Generate(40, 3)
	srv, _ := newTestServer(t, map[string][]byte{"dblp": doc}, store.Options{})

	q := `//article[author["Codd"]]`
	want, err := core.Load(doc).Query(q)
	if err != nil {
		t.Fatal(err)
	}

	var got store.QueryResponse
	status := getJSON(t, srv.URL+"/query?doc=dblp&q="+url.QueryEscape(q), &got)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got.Matches != want.SelectedTree {
		t.Fatalf("served %d matches, direct %d", got.Matches, want.SelectedTree)
	}
	if len(got.Paths) == 0 || got.Paths[0] != want.Paths(1)[0] {
		t.Fatalf("served paths %v, direct %v", got.Paths, want.Paths(1))
	}

	// max caps the returned paths, not the match count.
	status = getJSON(t, srv.URL+"/query?doc=dblp&max=1&q="+url.QueryEscape(`//author`), &got)
	if status != http.StatusOK || len(got.Paths) != 1 || got.Matches <= 1 {
		t.Fatalf("max=1: status %d, %d paths, %d matches", status, len(got.Paths), got.Matches)
	}
}

func TestQueryEndpointFanout(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{
		"a": c.Generate(20, 1),
		"b": c.Generate(20, 2),
		"c": c.Generate(20, 3),
	}
	srv, s := newTestServer(t, docs, store.Options{Workers: 3})

	var got store.FanoutResponse
	status := getJSON(t, srv.URL+"/query?q="+url.QueryEscape(`//author`), &got)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(got.Docs) != 3 || len(got.Failed) != 0 {
		t.Fatalf("fan-out over %d docs, %d failed", len(got.Docs), len(got.Failed))
	}
	var wantTotal uint64
	for name := range docs {
		res, err := s.QueryCtx(context.Background(), name, `//author`)
		if err != nil {
			t.Fatal(err)
		}
		wantTotal += res.SelectedTree
	}
	if got.TotalMatches != wantTotal {
		t.Fatalf("total %d, want %d", got.TotalMatches, wantTotal)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t, map[string][]byte{"a": []byte(`<a><b/></a>`)}, store.Options{})
	var e map[string]string
	if status := getJSON(t, srv.URL+"/query", &e); status != http.StatusBadRequest || e["error"] == "" {
		t.Fatalf("missing q: status %d, %v", status, e)
	}
	if status := getJSON(t, srv.URL+"/query?doc=nope&q=//a", &e); status != http.StatusNotFound {
		t.Fatalf("unknown doc: status %d", status)
	}
	if status := getJSON(t, srv.URL+"/query?doc=a&q="+url.QueryEscape("///"), &e); status != http.StatusBadRequest {
		t.Fatalf("bad query: status %d", status)
	}
	if status := getJSON(t, srv.URL+"/query?doc=a&max=-1&q=//a", &e); status != http.StatusBadRequest {
		t.Fatalf("bad max: status %d", status)
	}
	resp, err := http.Post(srv.URL+"/query?doc=a&q=//a", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
}

func TestDocsAndStatsEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, map[string][]byte{
		"a": []byte(`<a><b/></a>`),
		"b": []byte(`<b><c x="1"/>text</b>`),
	}, store.Options{})

	var docs store.DocsResponse
	if status := getJSON(t, srv.URL+"/docs", &docs); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if docs.Count != 2 || len(docs.Docs) != 2 || docs.Docs[0].Name != "a" {
		t.Fatalf("docs = %+v", docs)
	}
	if docs.Docs[0].Loaded {
		t.Fatal("doc loaded before any query")
	}

	var q store.QueryResponse
	getJSON(t, srv.URL+"/query?doc=b&q="+url.QueryEscape("//c"), &q)

	var stats store.StatsResponse
	if status := getJSON(t, srv.URL+"/stats", &stats); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if stats.Docs != 2 || stats.Loaded != 1 || stats.Queries != 1 || stats.DocMisses != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	getJSON(t, srv.URL+"/docs", &docs)
	if !docs.Docs[1].Loaded || docs.Docs[1].TreeVertices == 0 || docs.Docs[1].Containers == 0 {
		t.Fatalf("loaded row = %+v", docs.Docs[1])
	}
}

// TestConcurrentHTTPQueries drives the full HTTP stack from many clients
// at once against one store (run under -race in CI).
func TestConcurrentHTTPQueries(t *testing.T) {
	docs := smallCorpora(t)
	srv, s := newTestServer(t, docs, store.Options{Workers: 4})
	names := s.Names()
	queries := []string{`//author`, `//PLAYER`, `//article[author["Codd"]]`}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				name := names[(g+i)%len(names)]
				q := queries[(g+i)%len(queries)]
				var out store.QueryResponse
				resp, err := http.Get(srv.URL + "/query?doc=" + url.QueryEscape(name) + "&q=" + url.QueryEscape(q))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s %s: status %d: %s", name, q, resp.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &out); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Queries != 80 {
		t.Fatalf("served %d queries, want 80", st.Queries)
	}
}

// newIngestServer wires a store over an empty directory to a live
// ingester and serves both over HTTP.
func newIngestServer(t *testing.T) (*httptest.Server, *store.Store, *ingest.Ingester) {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := ingest.Open(ingest.Options{
		WALDir: filepath.Join(t.TempDir(), "wal"),
		Store:  s,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	srv := httptest.NewServer(store.NewHandler(s, store.ServerOptions{Ingest: ing}))
	t.Cleanup(srv.Close)
	return srv, s, ing
}

func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestIngestEndpoints(t *testing.T) {
	srv, s, _ := newIngestServer(t)
	doc := []byte(`<dblp><article><author>Codd</author><title>Relational</title></article></dblp>`)

	// POST a document; it must be queryable immediately (pre-compaction).
	status, body := do(t, http.MethodPost, srv.URL+"/docs/d1", doc)
	if status != http.StatusCreated {
		t.Fatalf("POST status %d: %s", status, body)
	}
	var q store.QueryResponse
	if st := getJSON(t, srv.URL+"/query?doc=d1&q="+url.QueryEscape(`//article[author["Codd"]]`), &q); st != http.StatusOK {
		t.Fatalf("query status %d", st)
	}
	if q.Matches != 1 {
		t.Fatalf("matches %d, want 1", q.Matches)
	}

	// The catalog lists it as live; stats carry ingest counters.
	var docs store.DocsResponse
	getJSON(t, srv.URL+"/docs", &docs)
	if docs.Count != 1 || !docs.Docs[0].Live {
		t.Fatalf("docs = %+v, want one live row", docs)
	}
	var stats store.StatsResponse
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Ingest == nil || stats.Ingest.Ingested != 1 || stats.Ingest.LiveDocs != 1 {
		t.Fatalf("stats.Ingest = %+v", stats.Ingest)
	}

	// Flush: the document moves to an archive but serves identically.
	if status, body = do(t, http.MethodPost, srv.URL+"/flush", nil); status != http.StatusOK {
		t.Fatalf("flush status %d: %s", status, body)
	}
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Ingest.LiveDocs != 0 || stats.Ingest.CompactedDocs != 1 {
		t.Fatalf("post-flush stats.Ingest = %+v", stats.Ingest)
	}
	getJSON(t, srv.URL+"/query?doc=d1&q="+url.QueryEscape(`//article[author["Codd"]]`), &q)
	if q.Matches != 1 {
		t.Fatalf("post-flush matches %d, want 1", q.Matches)
	}

	// Bad input is rejected with nothing written.
	if status, _ = do(t, http.MethodPost, srv.URL+"/docs/bad", []byte("<unclosed>")); status != http.StatusBadRequest {
		t.Fatalf("malformed XML: status %d", status)
	}
	if status, _ = do(t, http.MethodPost, srv.URL+"/docs/", doc); status != http.StatusNotFound {
		t.Fatalf("empty name: status %d", status)
	}

	// DELETE tombstones; the document disappears from queries.
	if status, body = do(t, http.MethodDelete, srv.URL+"/docs/d1", nil); status != http.StatusOK {
		t.Fatalf("DELETE status %d: %s", status, body)
	}
	if s.Has("d1") {
		t.Fatal("d1 still visible after DELETE")
	}
	if status, _ = do(t, http.MethodDelete, srv.URL+"/docs/d1", nil); status != http.StatusNotFound {
		t.Fatalf("second DELETE status %d, want 404", status)
	}
}

func TestIngestEndpointsReadOnly(t *testing.T) {
	srv, _ := newTestServer(t, map[string][]byte{"a": []byte(`<a/>`)}, store.Options{})
	if status, _ := do(t, http.MethodPost, srv.URL+"/docs/x", []byte(`<x/>`)); status != http.StatusForbidden {
		t.Fatalf("POST on read-only store: status %d, want 403", status)
	}
	if status, _ := do(t, http.MethodDelete, srv.URL+"/docs/a", nil); status != http.StatusForbidden {
		t.Fatalf("DELETE on read-only store: status %d, want 403", status)
	}
	if status, _ := do(t, http.MethodPost, srv.URL+"/flush", nil); status != http.StatusForbidden {
		t.Fatalf("flush on read-only store: status %d, want 403", status)
	}
	// Reads are unaffected.
	var q store.QueryResponse
	if st := getJSON(t, srv.URL+"/query?doc=a&q="+url.QueryEscape("//a"), &q); st != http.StatusOK {
		t.Fatalf("read status %d", st)
	}
}

// TestHTTPHostileDocNames drives traversal-style names through the HTTP
// surface both ways (write and read). Every one must be rejected before
// it reaches a filepath.Join, and nothing may be catalogued. Names with
// raw '/' are percent-encoded so they survive ServeMux path cleaning
// and actually reach the handler.
func TestHTTPHostileDocNames(t *testing.T) {
	srv, s, _ := newIngestServer(t)
	hostile := []struct{ label, escaped string }{
		{"dot dot", "%2E%2E"},
		{"traversal", "..%2F..%2Fetc%2Fpasswd"},
		{"embedded separator", "a%2Fb"},
		{"backslash", "a%5Cb"},
		{"leading dot", ".hidden"},
		{"space", "a%20b"},
		{"oversize", strings.Repeat("a", 201)},
	}
	for _, h := range hostile {
		status, body := do(t, http.MethodPost, srv.URL+"/docs/"+h.escaped, []byte(`<x/>`))
		if status >= 200 && status < 300 {
			t.Fatalf("%s: POST /docs/%s accepted (status %d): %s", h.label, h.escaped, status, body)
		}
		if status, _ := do(t, http.MethodGet, srv.URL+"/docs/"+h.escaped, nil); status >= 200 && status < 300 {
			t.Fatalf("%s: GET /docs/%s answered %d for a hostile name", h.label, h.escaped, status)
		}
		if status, _ := do(t, http.MethodDelete, srv.URL+"/docs/"+h.escaped, nil); status >= 200 && status < 300 {
			t.Fatalf("%s: DELETE /docs/%s answered %d for a hostile name", h.label, h.escaped, status)
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d documents catalogued after hostile POSTs, want 0", n)
	}
	// Nothing may have been written outside (or inside) the store dir.
	des, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("store dir not empty after hostile POSTs: %v", des)
	}
}
