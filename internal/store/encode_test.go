package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/store"
)

// encodeStd is the reference encoding AppendJSON must reproduce: what
// WriteJSON wrote with encoding/json before fan-out bodies encoded
// themselves.
func encodeStd(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzAppendJSON holds the hand-written fan-out encoder byte-equal to
// encoding/json over arbitrary strings (escapes, control characters,
// U+2028/U+2029, invalid UTF-8) in every string the body carries —
// query, document names, paths, error text, retry hint and trace stage
// keys — and over the omitempty and null cases of each field.
func FuzzAppendJSON(f *testing.F) {
	f.Add(`//a[b["x<y>&z"]]`, "doc-1", "1.2.3", "load: \"corrupt\"\n", "1", "eval", int64(42), uint64(7))
	f.Add("\u2028\u2029\x00\x1f\x7f\t", "\xff\xfe\xed\xa0\x80", "", `\`, "", "\b\f\r", int64(-1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, query, doc, path, errText, retry, stage string, n int64, m uint64) {
		full := &store.FanoutResponse{
			Query: query,
			Docs: []store.QueryResponse{
				{
					Doc: doc, Query: query, Matches: m, Paths: []string{path, doc + path, ""},
					SelectedDAG: int(n), VertsBefore: 1, EdgesBefore: 2, VertsAfter: 3, EdgesAfter: 4,
					PrepNanos: n, EvalNanos: -n,
					Trace: &store.TraceInfo{TotalNanos: n, Considered: 1, Scanned: 1},
				},
				{Doc: path, Query: query, Paths: []string{}, Pruned: true},
				{Doc: errText, Query: query, Matches: m, Direct: true},
			},
			Failed: []store.FanoutError{
				{Doc: doc, Error: errText, RetryAfter: retry},
				{Doc: path, Error: errText},
			},
			TotalMatches: m,
			Pruned:       int(n),
			Direct:       1,
			WallNanos:    n,
			Workers:      2,
			Trace: &store.TraceInfo{
				TotalNanos:   n,
				Stages:       map[string]int64{stage: n, stage + "x": 1, "eval": 2, "load": -3},
				Considered:   4,
				Pruned:       int(n & 1),
				Direct:       1,
				Scanned:      1,
				Failed:       2,
				BytesDecoded: n,
			},
		}
		sparse := &store.FanoutResponse{Query: query, Docs: []store.QueryResponse{}}
		for _, r := range []*store.FanoutResponse{full, sparse, {}, nil} {
			want := encodeStd(t, r)
			if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON differs from encoding/json:\n got: %q\nwant: %q", got, want)
			}
		}
	})
}

// TestServedFanoutBodiesReencode covers the served fan-out bodies the
// query-response golden does not: every golden fan-out request, plain
// and with trace=1, against a catalog holding one archive that rotted
// after open, so DBLP fan-outs carry failed entries. Each 200 body
// must decode into FanoutResponse with no unknown field and re-encode
// through encoding/json to the same bytes.
func TestServedFanoutBodiesReencode(t *testing.T) {
	docs := smallCorpora(t)
	docs["DBLP-rotten"] = docs["DBLP"]
	dir := packDir(t, docs)
	s, err := store.Open(dir, store.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(store.NewHandler(s, store.ServerOptions{}))
	defer srv.Close()
	// Rot a bit mid-body after open: the catalog keeps the entry, and
	// every load of it fails its CRC.
	rotten := filepath.Join(dir, "DBLP-rotten"+store.Ext)
	fi, err := os.Stat(rotten)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.FlipBit(rotten, (fi.Size()/2)*8); err != nil {
		t.Fatal(err)
	}

	var failed, traced int
	for _, c := range corpus.Catalog() {
		for _, q := range c.Queries {
			for _, max := range []int{0, 3, 100} {
				for _, trace := range []string{"", "&trace=1"} {
					path := fmt.Sprintf("/query?q=%s&max=%d%s", url.QueryEscape(q), max, trace)
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
					}
					var fr store.FanoutResponse
					dec := json.NewDecoder(bytes.NewReader(body))
					dec.DisallowUnknownFields()
					if err := dec.Decode(&fr); err != nil {
						t.Fatalf("GET %s: decoding body: %v", path, err)
					}
					if again := encodeStd(t, &fr); !bytes.Equal(body, again) {
						t.Fatalf("GET %s: served body differs from encoding/json:\n got: %s\nwant: %s", path, body, again)
					}
					if len(fr.Failed) > 0 {
						failed++
					}
					if fr.Trace != nil {
						traced++
					}
				}
			}
		}
	}
	if failed == 0 || traced == 0 {
		t.Fatalf("%d bodies with failed entries, %d with traces: want both > 0", failed, traced)
	}
}
