package store

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// storeMetrics is the store's handle set into its obs.Registry. Every
// serving counter lives here exactly once: Stats() (the /stats JSON)
// and the Prometheus exposition (/metrics) read the same sharded
// counters, so the two surfaces can never disagree about what happened
// — only about when they looked.
type storeMetrics struct {
	queries *obs.Counter

	docHits, docMisses, evictions *obs.Counter
	progHits, progMisses          *obs.Counter

	pruneConsidered, prunePruned            *obs.Counter
	planReordered, planDirect, planFallback *obs.Counter

	synBuilds, synWriteErrs *obs.Counter
	bundleRebuilds          *obs.Counter
	openSkipped             *obs.Counter

	// Scrubber counters (scrub.go). scrubScanned/scrubBytes measure
	// verification work; scrubCorrupt artifacts found bad;
	// scrubQuarantined documents moved aside; scrubRepaired artifacts
	// rebuilt in place (sidecars, needle indexes).
	scrubPasses, scrubScanned, scrubBytes         *obs.Counter
	scrubCorrupt, scrubQuarantined, scrubRepaired *obs.Counter
	degradedDocs                                  *obs.Counter

	decodeBytes     *obs.Counter // archive bytes decoded on cache misses
	bundleReads     *obs.Counter // cold-tier documents decoded (pread + decode)
	bundleReadBytes *obs.Counter

	queryHist *obs.Histogram // total wall per query (single and fan-out)
	stage     [obs.NumStages]*obs.Histogram
}

func newStoreMetrics(r *obs.Registry) *storeMetrics {
	m := &storeMetrics{
		queries: r.Counter("xc_queries_total", "Per-document query evaluations served."),

		docHits:    r.Counter("xc_doc_cache_hits_total", "Queries served from the decoded-document cache."),
		docMisses:  r.Counter("xc_doc_cache_misses_total", "Archive decodes performed (document cache misses)."),
		evictions:  r.Counter("xc_doc_cache_evictions_total", "Documents evicted from the decoded-document cache."),
		progHits:   r.Counter("xc_program_cache_hits_total", "Compiled-program cache hits."),
		progMisses: r.Counter("xc_program_cache_misses_total", "Query compilations performed (program cache misses)."),

		pruneConsidered: r.Counter("xc_prune_considered_total", "(query, document) pairs fan-outs checked against the synopsis index."),
		prunePruned:     r.Counter("xc_prune_pruned_total", "Pairs the synopsis index skipped without touching the document."),
		planReordered:   r.Counter("xc_plan_reordered_total", "Plan builds that changed evaluation order."),
		planDirect:      r.Counter("xc_plan_direct_total", "Documents answered from synopsis statistics alone."),
		planFallback:    r.Counter("xc_plan_fallback_total", "Direct results later evaluated for real (paths or instance wanted)."),

		synBuilds:      r.Counter("xc_synopsis_builds_total", "Synopsis sidecars rebuilt at open (missing or unreadable)."),
		synWriteErrs:   r.Counter("xc_synopsis_write_errors_total", "Synopsis sidecar persists that failed at open."),
		bundleRebuilds: r.Counter("xc_bundle_rebuilds_total", "Bundle needle indexes rebuilt by scanning at open."),
		openSkipped:    r.Counter("xc_open_skipped_corrupt_total", "Corrupt artifacts skipped (not catalogued) at open."),

		scrubPasses:      r.Counter("xc_scrub_passes_total", "Completed scrub passes over the catalog."),
		scrubScanned:     r.Counter("xc_scrub_scanned_total", "Artifacts (archives, sidecars, needles) the scrubber verified."),
		scrubBytes:       r.Counter("xc_scrub_bytes_total", "Bytes the scrubber read and checksummed."),
		scrubCorrupt:     r.Counter("xc_scrub_corrupt_total", "Artifacts the scrubber found corrupt."),
		scrubQuarantined: r.Counter("xc_scrub_quarantined_total", "Corrupt artifacts moved into quarantine/."),
		scrubRepaired:    r.Counter("xc_scrub_repaired_total", "Artifacts the scrubber rebuilt (sidecars, needle indexes)."),
		degradedDocs:     r.Counter("xc_degraded_docs_total", "Per-document failures served degraded inside fan-out responses."),

		decodeBytes:     r.Counter("xc_decode_bytes_total", "Archive bytes read and decoded on document cache misses."),
		bundleReads:     r.Counter("xc_bundle_reads_total", "Documents decoded from cold-tier bundles."),
		bundleReadBytes: r.Counter("xc_bundle_read_bytes_total", "Archive payload bytes pread from cold-tier bundles."),

		queryHist: r.Histogram("xc_query_seconds", "Total wall time per query (single-document and fan-out).", obs.UnitSeconds),
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		m.stage[st] = r.LabeledHistogram("xc_query_stage_seconds",
			"Wall time per query pipeline stage.", obs.UnitSeconds,
			obs.Label("stage", st.String()))
	}
	return m
}

// statsSampler caches one Stats() snapshot per scrape burst: a /metrics
// scrape samples a dozen gauges, and each full Stats() walks the entry
// map and per-bundle locks.
type statsSampler struct {
	s  *Store
	mu sync.Mutex
	at time.Time
	st Stats
}

func (ss *statsSampler) sample() Stats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if time.Since(ss.at) > time.Second {
		ss.st = ss.s.Stats()
		ss.at = time.Now()
	}
	return ss.st
}

// registerGauges exposes the store's sampled-at-scrape state: catalog
// and cache sizes, synopsis-index footprint and the cold tier. Called
// once from Open, after the store is fully constructed (gauge functions
// run at scrape time under the registry lock, so they must not register
// anything — they only read).
func (s *Store) registerGauges() {
	ss := &statsSampler{s: s}
	g := func(name, help string, f func(Stats) float64) {
		s.reg.Gauge(name, help, func() float64 { return f(ss.sample()) })
	}
	g("xc_docs", "Catalogued archive documents.", func(st Stats) float64 { return float64(st.Docs) })
	g("xc_docs_loaded", "Documents currently decoded and cached.", func(st Stats) float64 { return float64(st.Loaded) })
	g("xc_cache_bytes", "Estimated bytes of cached decoded documents.", func(st Stats) float64 { return float64(st.CacheBytes) })
	g("xc_cache_budget_bytes", "Configured decoded-document cache budget.", func(st Stats) float64 { return float64(st.BudgetBytes) })
	g("xc_programs_cached", "Compiled programs retained.", func(st Stats) float64 { return float64(st.ProgramsCached) })
	g("xc_synopsis_docs", "Archives with an indexed path synopsis.", func(st Stats) float64 { return float64(st.SynopsisDocs) })
	g("xc_synopsis_bytes", "Estimated synopsis-index memory.", func(st Stats) float64 { return float64(st.SynopsisBytes) })
	g("xc_bundles", "Open cold-tier bundle files.", func(st Stats) float64 { return float64(st.Bundles) })
	g("xc_bundled_docs", "Catalogued documents served from bundles.", func(st Stats) float64 { return float64(st.BundledDocs) })
	g("xc_bundle_bytes", "Summed bundle data-file sizes.", func(st Stats) float64 { return float64(st.BundleBytes) })
	g("xc_bundle_dead_bytes", "Tombstoned or replaced needle bytes awaiting GC.", func(st Stats) float64 { return float64(st.BundleDeadBytes) })
	g("xc_quarantined_docs", "Documents moved into quarantine/ since open.", func(st Stats) float64 { return float64(st.ScrubQuarantined) })
	g("xc_suspect_docs", "Artifacts queued for scrub verification.", func(st Stats) float64 { return float64(st.Suspects) })
	if s.slow != nil {
		slow := s.slow
		s.reg.Gauge("xc_slow_queries", "Queries at or over the slow-query threshold (including ring-evicted ones).",
			func() float64 { return float64(slow.Total()) })
	}
}

// Metrics returns the store's metrics registry — the scrape target
// behind GET /metrics, shared with the write subsystem (internal/ingest
// registers its counters here too).
func (s *Store) Metrics() *obs.Registry { return s.reg }

// SlowLog returns the slow-query ring, or nil when
// Options.SlowQueryThreshold left it disabled.
func (s *Store) SlowLog() *obs.SlowLog { return s.slow }
