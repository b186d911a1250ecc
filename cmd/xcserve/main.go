// xcserve serves Core XPath queries over a directory of .xca archives —
// the long-running face of the system: documents live in compressed
// storage, are decoded lazily into an LRU cache under a byte budget, and
// queries are answered from the cached compressed instances without ever
// re-parsing (or even holding) XML.
//
//	xcarchive pack-dir corpus/ archives/
//	xcserve -store archives/ -addr :8344
//	xcserve -store archives/ -ingest            # read-write
//
// Read endpoints (GET, JSON):
//
//	/query?doc=NAME&q=XPATH[&max=N]  one document
//	/query?q=XPATH[&max=N]           fan out over the whole catalog
//	/docs                            the catalog with per-document sizes
//	/stats                           cache, query and ingest counters
//	/metrics                         Prometheus text exposition
//	/debug/slow                      the slow-query ring (-slow-query)
//
// Adding trace=1 to a /query request attaches a per-stage timing
// breakdown (plan, prune, direct, load, eval, materialize) plus
// documents considered/pruned/scanned and bytes decoded. Queries at or
// over -slow-query land in a ring buffer served at /debug/slow.
// -debug-addr starts a second listener with net/http/pprof;
// -access-log writes one structured line per request to stderr.
//
// With -ingest, the write path (internal/ingest) comes up too: documents
// POSTed to /docs/NAME are WAL-logged, compressed into the memtable and
// immediately queryable; a background compactor turns them into .xca
// archives in the store directory. DELETE /docs/NAME tombstones; POST
// /flush forces compaction. With -pack-min-docs N the compactor also
// runs the cold-tier packing stage: loose archives are migrated into
// append-only bundle files (and over-dead bundles garbage-collected)
// once N qualify, keeping catalogs of many small documents cheap to
// open and serve.
//
// Fan-outs consult the path-synopsis index first: each archive carries a
// tiny sidecar (doc.xcs) summarising its tag vocabulary and bounded-depth
// root paths, and documents a query provably cannot match are skipped
// without being decoded (the "pruned" rows of /query responses, counted
// in /stats). Missing sidecars are rebuilt at startup; -no-synopsis
// turns the index off.
//
// Because cached documents are immutable, the read path needs no locking:
// every request evaluates on the shared frozen instance through its own
// pooled overlay, and fan-outs spread over a bounded worker pool
// (engine.ForEachCtx) sized by -workers. On SIGINT/SIGTERM the server
// stops accepting connections, drains in-flight queries, and flushes the
// ingest WAL into archives before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the DefaultServeMux profiles
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/bundle"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() {
	var (
		dir        = flag.String("store", "", "directory of .xca archives to serve (required)")
		addr       = flag.String("addr", ":8344", "listen address")
		workers    = flag.Int("workers", 0, "fan-out worker bound (0 = GOMAXPROCS)")
		cacheBytes = flag.Int64("cache-bytes", store.DefaultCacheBytes, "decoded-document cache budget in bytes")
		progCache  = flag.Int("query-cache", store.DefaultProgramCache, "compiled-query cache entries")
		maxPaths   = flag.Int("max-paths", 100, "cap on result addresses per response")
		noSynopsis = flag.Bool("no-synopsis", false, "disable the path-synopsis index: no sidecars, every fan-out scans every document")
		noPlanner  = flag.Bool("no-planner", false, "disable cost-based query planning: syntactic evaluation order, no synopsis-direct answers")

		ingestOn     = flag.Bool("ingest", false, "enable the write path (POST /docs/NAME, DELETE /docs/NAME, POST /flush)")
		walDir       = flag.String("wal", "", "WAL directory (default <store>/wal)")
		walSync      = flag.Bool("wal-sync", true, "fsync the WAL on every write (off: faster, a crash can lose recent writes)")
		memBytes     = flag.Int64("memtable-bytes", ingest.DefaultMemTableBytes, "seal the memtable for compaction past this estimated size")
		compactEvery = flag.Duration("compact-interval", 15*time.Second, "also compact on this interval (0 = only on memtable pressure and /flush)")
		maxBody      = flag.Int64("max-doc-bytes", 64<<20, "largest accepted POST body")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries")

		packMinDocs = flag.Int("pack-min-docs", 0, "pack loose archives into cold-tier bundles once this many qualify after a compaction (0 = packing off)")
		packMaxDoc  = flag.Int64("pack-max-doc-bytes", 0, "leave archives over this many bytes loose when packing (0 = pack everything)")
		bundleMax   = flag.Int64("bundle-max-bytes", bundle.DefaultMaxBytes, "roll to a new bundle file past this many bytes")
		bundleGC    = flag.Float64("bundle-gc-ratio", store.DefaultBundleGCRatio, "rewrite a bundle once this fraction of its bytes is dead")

		queryTimeout  = flag.Duration("query-timeout", 0, "bound each /query evaluation; past it the request fails 504 (0 = unbounded)")
		maxConcurrent = flag.Int("max-concurrent", 0, "cap in-flight /query requests; excess is shed with 429 (0 = unbounded)")
		scrubEvery    = flag.Duration("scrub-interval", 0, "background scrub pass interval: re-verify archive checksums, quarantine corrupt files (0 = off)")
		scrubRate     = flag.Int64("scrub-rate-bytes", 0, "scrub read-rate limit in bytes/sec (0 = unthrottled)")

		advertise   = flag.String("advertise", "", "this node's advertise URL for cluster peers, e.g. http://10.0.0.1:8344 (required with -cluster-peers)")
		clusterPeer = flag.String("cluster-peers", "", "comma-separated advertise URLs of every cluster member; enables sharded, replicated serving")
		replFactor  = flag.Int("replication-factor", cluster.DefaultReplicationFactor, "replica owners per document in cluster mode")

		slowQuery = flag.Duration("slow-query", time.Second, "log queries at or over this wall time to /debug/slow (0 = off)")
		slowSize  = flag.Int("slow-log", 128, "slow-query ring capacity")
		debugAddr = flag.String("debug-addr", "", "also listen here with net/http/pprof profiles (empty = off)")
		accessLog = flag.Bool("access-log", false, "write one structured JSON line per request to stderr")
		noMetrics = flag.Bool("no-metrics", false, "disable latency histograms and runtime gauges (/stats counters stay live)")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	s, err := store.Open(*dir, store.Options{
		CacheBytes:         *cacheBytes,
		Workers:            *workers,
		ProgramCache:       *progCache,
		DisableSynopsis:    *noSynopsis,
		DisablePlanner:     *noPlanner,
		DisableMetrics:     *noMetrics,
		SlowQueryThreshold: *slowQuery,
		SlowLogSize:        *slowSize,
	})
	if err != nil {
		log.Fatalf("xcserve: %v", err)
	}
	build := obs.Build()
	log.Printf("xcserve: %s (%s, %s, GOMAXPROCS=%d)", build.Version, build.Commit, build.GoVersion, build.GOMAXPROCS)
	if !*noSynopsis {
		st := s.Stats()
		log.Printf("xcserve: path-synopsis index: %d document(s) indexed, %d sidecar(s) rebuilt, %s",
			st.SynopsisDocs, st.SynopsisBuilds, humanBytes(st.SynopsisBytes))
	}
	if s.Len() == 0 && !*ingestOn {
		log.Printf("xcserve: warning: no %s archives in %s (pack some with: xcarchive pack-dir, or restart with -ingest and POST documents)", store.Ext, *dir)
	}

	if *scrubEvery > 0 {
		s.StartScrubber(*scrubEvery, store.ScrubOptions{RateBytesPerSec: *scrubRate})
		log.Printf("xcserve: background scrubber on (interval=%v, rate=%s/s); corrupt artifacts move to %s/",
			*scrubEvery, humanBytes(*scrubRate), filepath.Join(*dir, store.QuarantineDir))
	}

	// Cluster mode: assemble the node before ingest so the compactor's
	// publish hook can hand fresh archives to the replicator.
	var node *cluster.Node
	if *clusterPeer != "" {
		if *advertise == "" {
			log.Fatalf("xcserve: -cluster-peers requires -advertise")
		}
		node, err = cluster.New(s, cluster.Config{
			Self:                 *advertise,
			Peers:                splitPeers(*clusterPeer),
			ReplicationFactor:    *replFactor,
			ScatterTimeout:       *queryTimeout,
			QueryTimeout:         *queryTimeout,
			MaxConcurrentQueries: *maxConcurrent,
		})
		if err != nil {
			log.Fatalf("xcserve: %v", err)
		}
	}

	var ing *ingest.Ingester
	serverOpts := store.ServerOptions{
		MaxPaths:             *maxPaths,
		MaxBodyBytes:         *maxBody,
		QueryTimeout:         *queryTimeout,
		MaxConcurrentQueries: *maxConcurrent,
	}
	if *accessLog {
		serverOpts.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *ingestOn {
		wd := *walDir
		if wd == "" {
			wd = filepath.Join(*dir, "wal")
		}
		ingOpts := ingest.Options{
			WALDir:          wd,
			Store:           s,
			Sync:            *walSync,
			MemTableBytes:   *memBytes,
			CompactInterval: *compactEvery,
			PackMinDocs:     *packMinDocs,
			PackMaxDocBytes: *packMaxDoc,
			BundleMaxBytes:  *bundleMax,
			BundleGCRatio:   *bundleGC,
		}
		if node != nil {
			ingOpts.Published = node.Published
		}
		ing, err = ingest.Open(ingOpts)
		if err != nil {
			log.Fatalf("xcserve: %v", err)
		}
		serverOpts.Ingest = ing
		ist := ing.Stats()
		log.Printf("xcserve: ingest enabled (wal=%s sync=%v memtable=%s); replayed %d WAL record(s)",
			wd, *walSync, humanBytes(*memBytes), ist.Replayed)
	}

	if *debugAddr != "" {
		// The pprof import registered its profiles on the DefaultServeMux;
		// mirror /metrics there too, so the debug port is a complete
		// scrape-and-profile target that can stay firewalled off while
		// -addr is public.
		http.Handle("/metrics", s.Metrics().Handler())
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("xcserve: debug listener: %v", err)
			}
		}()
		log.Printf("xcserve: debug listener on %s (profiles at /debug/pprof/, metrics at /metrics)", *debugAddr)
	}

	handler := store.NewHandler(s, serverOpts)
	if node != nil {
		handler = node.Handler(handler, *maxPaths)
		node.Start()
		log.Printf("xcserve: cluster mode: self=%s peers=%d rf=%d (ring version %016x)",
			*advertise, node.Ring().Len(), *replFactor, node.Ring().Version())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("xcserve: serving %d document(s) from %s on %s (workers=%d, cache=%s)",
		s.Len(), *dir, *addr, s.Workers(), humanBytes(*cacheBytes))

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight requests, then flush the ingest WAL into archives.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatalf("xcserve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("xcserve: shutting down: draining in-flight queries (up to %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("xcserve: drain: %v", err)
	}
	s.StopScrubber()
	// Flush ingest BEFORE stopping the cluster node: the flush publishes
	// any remaining memtable data, and the Published hook must still be
	// able to append to the replicator's pending WAL.
	if ing != nil {
		log.Printf("xcserve: flushing ingest WAL to archives")
		if err := ing.Close(); err != nil {
			log.Fatalf("xcserve: ingest close: %v", err)
		}
	}
	if node != nil {
		node.Stop()
	}
	log.Printf("xcserve: bye")
}

// splitPeers parses the -cluster-peers list, dropping empties so a
// trailing comma is harmless.
func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
