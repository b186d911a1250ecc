package store_test

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/store"
)

// scrapeMetrics fetches /metrics and returns the sample values keyed by
// full series name (labels included).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestMetricsEndpoint checks the scrape is well-formed and that its
// counters are the same numbers /stats reports — the single-source-of-
// truth contract of the registry rebase.
func TestMetricsEndpoint(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{
		"a": c.Generate(20, 1),
		"b": c.Generate(20, 2),
	}
	srv, _ := newTestServer(t, docs, store.Options{})

	q := url.QueryEscape(`//article`)
	for i := 0; i < 3; i++ {
		var qr store.QueryResponse
		if status := getJSON(t, srv.URL+"/query?doc=a&q="+q, &qr); status != http.StatusOK {
			t.Fatalf("query status %d", status)
		}
	}
	var fr store.FanoutResponse
	if status := getJSON(t, srv.URL+"/query?q="+q, &fr); status != http.StatusOK {
		t.Fatalf("fanout status %d", status)
	}

	samples := scrapeMetrics(t, srv.URL)
	var st store.StatsResponse
	if status := getJSON(t, srv.URL+"/stats", &st); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}

	// /metrics was scraped before /stats, and nothing queries in between,
	// so the shared counters must agree exactly.
	for series, want := range map[string]float64{
		"xc_queries_total":             float64(st.Queries),
		"xc_doc_cache_hits_total":      float64(st.DocHits),
		"xc_doc_cache_misses_total":    float64(st.DocMisses),
		"xc_prune_considered_total":    float64(st.PruneConsidered),
		"xc_decode_bytes_total":        float64(st.DecodeBytes),
		"xc_docs":                      float64(st.Docs),
		"xc_query_seconds_count":       0, // presence-checked below, value varies
		"go_goroutines":                0,
		"go_memstats_heap_alloc_bytes": 0,
	} {
		got, ok := samples[series]
		if !ok {
			t.Errorf("/metrics missing series %s", series)
			continue
		}
		if want != 0 && got != want {
			t.Errorf("%s = %g on /metrics, %g on /stats", series, got, want)
		}
	}
	if samples["xc_queries_total"] < 4 {
		t.Errorf("xc_queries_total = %g after 3 single queries + 1 fan-out", samples["xc_queries_total"])
	}
	if samples["xc_query_seconds_count"] < 4 {
		t.Errorf("xc_query_seconds_count = %g, want >= 4", samples["xc_query_seconds_count"])
	}
	// Per-stage histograms: eval must have recorded for the scanned
	// queries, and at least one bucket series must exist.
	if samples[`xc_query_stage_seconds_count{stage="eval"}`] < 1 {
		t.Errorf("no eval-stage observations in /metrics")
	}
	foundBucket, foundBuild := false, false
	for series := range samples {
		if strings.HasPrefix(series, "xc_query_seconds_bucket{") {
			foundBucket = true
		}
		if strings.HasPrefix(series, "xc_build_info{") {
			foundBuild = true
		}
	}
	if !foundBucket {
		t.Error("xc_query_seconds has no buckets")
	}
	if !foundBuild {
		t.Error("xc_build_info missing")
	}

	// /stats extensions ride along: uptime and build identity.
	if st.UptimeSeconds <= 0 || st.UptimeNanos <= 0 {
		t.Errorf("uptime_seconds = %g, uptime_ns = %d", st.UptimeSeconds, st.UptimeNanos)
	}
	if st.Build.Version == "" || !strings.HasPrefix(st.Build.GoVersion, "go") || st.Build.GOMAXPROCS < 1 {
		t.Errorf("build info = %+v", st.Build)
	}
}

// TestQueryTraceParam checks trace=1 attaches a stage breakdown to both
// query shapes, and that untraced responses omit it.
func TestQueryTraceParam(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{
		"a": c.Generate(20, 1),
		"b": c.Generate(20, 2),
		"c": c.Generate(20, 3),
	}
	srv, _ := newTestServer(t, docs, store.Options{})
	q := url.QueryEscape(`//article[author]`)

	var qr store.QueryResponse
	if status := getJSON(t, srv.URL+"/query?doc=a&q="+q, &qr); status != http.StatusOK {
		t.Fatalf("untraced status %d", status)
	}
	if qr.Trace != nil {
		t.Fatal("trace attached without trace=1")
	}

	if status := getJSON(t, srv.URL+"/query?doc=a&trace=1&q="+q, &qr); status != http.StatusOK {
		t.Fatalf("traced status %d", status)
	}
	tr := qr.Trace
	if tr == nil {
		t.Fatal("trace=1 returned no trace")
	}
	if tr.TotalNanos <= 0 {
		t.Errorf("trace total_ns = %d", tr.TotalNanos)
	}
	if tr.Stages["eval"] <= 0 {
		t.Errorf("trace stages = %v, want eval > 0", tr.Stages)
	}
	if tr.Considered != 1 || tr.Scanned != 1 || tr.Failed != 0 {
		t.Errorf("single-doc trace counts = %+v", tr)
	}
	var total int64
	for _, ns := range tr.Stages {
		total += ns
	}
	if total > tr.TotalNanos {
		t.Errorf("stage sum %d exceeds total %d", total, tr.TotalNanos)
	}

	var before, after store.StatsResponse
	if status := getJSON(t, srv.URL+"/stats", &before); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	var fr store.FanoutResponse
	if status := getJSON(t, srv.URL+"/query?trace=1&q="+q, &fr); status != http.StatusOK {
		t.Fatalf("fanout traced status %d", status)
	}
	if status := getJSON(t, srv.URL+"/stats", &after); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	// The registry's considered counter (behind /stats and /metrics)
	// sees each (fan-out, document) pair exactly once.
	if got := after.PruneConsidered - before.PruneConsidered; got != uint64(len(docs)) {
		t.Errorf("prune_considered advanced %d over one fan-out of %d docs", got, len(docs))
	}
	if fr.Trace == nil {
		t.Fatal("fan-out trace=1 returned no trace")
	}
	if fr.Trace.Considered != len(docs) {
		t.Errorf("fan-out considered %d docs, want %d", fr.Trace.Considered, len(docs))
	}
	if got := fr.Trace.Pruned + fr.Trace.Direct + fr.Trace.Scanned; got != len(docs) {
		t.Errorf("pruned+direct+scanned = %d, want %d", got, len(docs))
	}
}

// TestSlowLogEndpoint checks a 1ns threshold catches everything, the
// ring serves newest-first with stage breakdowns, and that the endpoint
// 404s when the log is disabled.
func TestSlowLogEndpoint(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{"a": c.Generate(20, 1)}
	srv, _ := newTestServer(t, docs, store.Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowLogSize:        4,
	})

	for i := 0; i < 6; i++ {
		var qr store.QueryResponse
		q := url.QueryEscape(fmt.Sprintf(`//article[%d]`, i+1))
		if status := getJSON(t, srv.URL+"/query?doc=a&q="+q, &qr); status != http.StatusOK {
			t.Fatalf("query %d status %d", i, status)
		}
	}

	var slow store.SlowResponse
	if status := getJSON(t, srv.URL+"/debug/slow", &slow); status != http.StatusOK {
		t.Fatalf("/debug/slow status %d", status)
	}
	if slow.ThresholdNanos != 1 {
		t.Errorf("threshold_ns = %d, want 1", slow.ThresholdNanos)
	}
	if slow.Total != 6 {
		t.Errorf("total = %d, want 6 (evicted entries still counted)", slow.Total)
	}
	if len(slow.Entries) != 4 {
		t.Fatalf("ring holds %d entries, want capacity 4", len(slow.Entries))
	}
	if slow.Entries[0].Query != `//article[6]` {
		t.Errorf("newest entry = %q, want the last query", slow.Entries[0].Query)
	}
	if slow.Entries[0].TotalNanos <= 0 || len(slow.Entries[0].Stages) == 0 {
		t.Errorf("entry lost its timing: %+v", slow.Entries[0])
	}

	// xc_slow_queries gauge follows the ring's total.
	if got := scrapeMetrics(t, srv.URL)["xc_slow_queries"]; got != 6 {
		t.Errorf("xc_slow_queries = %g, want 6", got)
	}

	// Disabled: no threshold, no endpoint.
	srvOff, _ := newTestServer(t, docs, store.Options{})
	var e map[string]string
	if status := getJSON(t, srvOff.URL+"/debug/slow", &e); status != http.StatusNotFound {
		t.Fatalf("/debug/slow with log disabled: status %d, want 404", status)
	}
}

// TestDisableMetrics checks the -no-metrics mode: histograms record
// nothing, but the /stats counters (which predate the registry) keep
// counting.
func TestDisableMetrics(t *testing.T) {
	c, err := corpus.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{"a": c.Generate(20, 1)}
	srv, _ := newTestServer(t, docs, store.Options{DisableMetrics: true})

	var qr store.QueryResponse
	q := url.QueryEscape(`//article`)
	if status := getJSON(t, srv.URL+"/query?doc=a&q="+q, &qr); status != http.StatusOK {
		t.Fatalf("query status %d", status)
	}

	var st store.StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Queries != 1 {
		t.Errorf("queries = %d with metrics off, want 1", st.Queries)
	}
	if got := scrapeMetrics(t, srv.URL)["xc_query_seconds_count"]; got != 0 {
		t.Errorf("disabled registry recorded %g query latencies", got)
	}

	// trace=1 still works: the explicit ask forces a trace even with the
	// registry off.
	if status := getJSON(t, srv.URL+"/query?doc=a&trace=1&q="+q, &qr); status != http.StatusOK {
		t.Fatalf("traced status %d", status)
	}
	if qr.Trace == nil || qr.Trace.Stages["eval"] <= 0 {
		t.Fatalf("trace=1 with metrics off: %+v", qr.Trace)
	}
}
