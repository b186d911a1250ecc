package store_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
)

const queryResponsesGolden = "testdata/query_responses.golden"

// timingField matches the only non-deterministic values a /query body
// carries: per-document preparation and evaluation times and the
// fan-out's wall time.
var timingField = regexp.MustCompile(`"(prep_ns|eval_ns|wall_ns)":[0-9]+`)

// renderQueryResponses serves every golden request through NewHandler
// over one document per corpus and returns the raw bodies, timings
// zeroed: every corpus query fanned out at max 0, 3 and 100, every
// corpus query against its home document at max 3, and the error
// bodies of a missing q, a negative max, an unknown document and an
// unparsable query.
func renderQueryResponses(t *testing.T) string {
	t.Helper()
	s, err := store.Open(packDir(t, smallCorpora(t)), store.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.NewHandler(s, store.ServerOptions{}))
	defer srv.Close()

	var reqs []string
	for _, c := range corpus.Catalog() {
		for _, q := range c.Queries {
			for _, max := range []int{0, 3, 100} {
				reqs = append(reqs, fmt.Sprintf("/query?q=%s&max=%d", url.QueryEscape(q), max))
			}
		}
	}
	for _, c := range corpus.Catalog() {
		for _, q := range c.Queries {
			reqs = append(reqs, fmt.Sprintf("/query?doc=%s&q=%s&max=3", url.QueryEscape(c.Name), url.QueryEscape(q)))
		}
	}
	reqs = append(reqs,
		"/query",
		"/query?q=//a&max=-1",
		"/query?doc=nope&q=//a",
		"/query?q="+url.QueryEscape("//a["))

	var b strings.Builder
	for _, path := range reqs {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "GET %s\n%d\n%s", path, resp.StatusCode,
			timingField.ReplaceAll(body, []byte(`"$1":0`)))
	}
	return b.String()
}

// TestQueryResponsesGolden pins the bytes /query serves: a change to how
// a query reaches evaluation, is budgeted or is rendered must leave
// every body (timings aside) exactly as it was.
func TestQueryResponsesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(queryResponsesGolden))
	if err != nil {
		t.Fatal(err)
	}
	got := renderQueryResponses(t)
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", queryResponsesGolden, i+1, g, w)
		}
	}
}
