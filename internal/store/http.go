package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// IngestStats is a point-in-time snapshot of the write path, reported
// under "ingest" in /stats.
type IngestStats struct {
	Ingested uint64 `json:"ingested"` // documents accepted since open
	Deleted  uint64 `json:"deleted"`  // tombstones accepted since open
	Replayed int    `json:"replayed"` // WAL records replayed at open

	LiveDocs   int   `json:"live_docs"`  // memtable entries awaiting compaction
	LiveBytes  int64 `json:"live_bytes"` // their estimated in-memory size
	SealedGens int   `json:"sealed_generations"`

	Compactions   uint64 `json:"compactions"`
	CompactedDocs uint64 `json:"compacted_docs"`

	// CompactionRetries counts write steps (archive, sidecar, packing)
	// re-attempted after a transient failure; CompactionFailures counts
	// steps that failed even after exhausting their retry budget.
	CompactionRetries  uint64 `json:"compaction_retries,omitempty"`
	CompactionFailures uint64 `json:"compaction_failures,omitempty"`

	// PackedDocs counts documents the compactor's packing stage migrated
	// from loose archives into cold-tier bundles (0 when packing is off).
	PackedDocs uint64 `json:"packed_docs,omitempty"`

	// SynopsisBuilds counts per-document path synopses built by the
	// write path (at ingest and WAL replay); compaction persists them as
	// archive sidecars.
	SynopsisBuilds uint64 `json:"synopsis_builds"`

	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	WALSync     bool  `json:"wal_sync"`

	// WALOpenWarnings lists non-fatal conditions the WAL open tolerated
	// and worked around — e.g. an empty segment that could not be
	// unlinked and was kept (harmlessly) instead. Persistent entries
	// here mean the WAL directory needs operator attention.
	WALOpenWarnings []string `json:"wal_open_warnings,omitempty"`

	LastError string `json:"last_error,omitempty"` // pending background-compaction failure
}

// Ingestor is the write API the HTTP layer drives — implemented by
// internal/ingest.Ingester. All methods must be safe for concurrent use.
type Ingestor interface {
	// Add ingests one XML document under name, replacing any existing
	// document with that name.
	Add(name string, xml []byte) error
	// Delete tombstones name.
	Delete(name string) error
	// Flush makes every ingested document durable as an archive.
	Flush() error
	// Stats snapshots the write path.
	Stats() IngestStats
}

// ServerOptions configures the HTTP face of a Store.
type ServerOptions struct {
	// MaxPaths caps how many result addresses a single response may carry
	// (the `max` query parameter is clamped to it). <= 0 selects 100.
	MaxPaths int
	// Ingest enables the write endpoints. nil serves read-only.
	Ingest Ingestor
	// MaxBodyBytes caps an ingested document's size. <= 0 selects 64 MiB.
	MaxBodyBytes int64
	// AccessLog, when non-nil, wraps the handler in structured
	// per-request logging (method, path, status, duration, bytes).
	AccessLog *slog.Logger

	// QueryTimeout bounds each /query evaluation. Past it the request
	// fails with 504 and the store stops dispatching documents (loads
	// and evaluations already running finish). <= 0 disables the bound.
	QueryTimeout time.Duration

	// MaxConcurrentQueries caps in-flight /query requests: requests over
	// the cap are shed immediately with 429 rather than queued, keeping
	// latency bounded under overload. <= 0 disables admission control.
	MaxConcurrentQueries int
}

// NewHandler wraps a Store in the xcserve HTTP API:
//
//	GET /query?doc=NAME&q=XPATH[&max=N]  evaluate against one document
//	GET /query?q=XPATH[&max=N]           fan out over every document
//	GET /docs                            the catalog
//	GET /stats                           cache, query and ingest counters
//	GET /metrics                         Prometheus text exposition
//	GET /debug/slow                      slow-query ring (when enabled)
//
// Adding trace=1 to /query attaches a per-stage timing breakdown to
// the response.
//
// When ServerOptions.Ingest is set, the write API:
//
//	POST   /docs/NAME   body = XML      ingest (or replace) a document
//	DELETE /docs/NAME                   tombstone a document
//	POST   /flush                       force compaction to archives
//
// All responses are JSON (except /metrics, which is Prometheus text);
// errors are {"error": "..."} with a matching status code. The handler
// is safe for concurrent use — it adds no state of its own beyond the
// start time, the Store is coordination-free on the read path, and the
// Ingestor serialises the write path internally.
func NewHandler(s *Store, opts ServerOptions) http.Handler {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 100
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	h := &handler{store: s, opts: opts, start: time.Now()}
	if opts.MaxConcurrentQueries > 0 {
		h.sem = make(chan struct{}, opts.MaxConcurrentQueries)
	}
	h.shed = s.Metrics().Counter("xc_queries_shed_total",
		"Query requests rejected with 429 by the admission gate.")
	h.timeouts = s.Metrics().Counter("xc_query_timeouts_total",
		"Query requests that hit the configured -query-timeout (504).")
	mux := http.NewServeMux()
	mux.HandleFunc("/query", h.query)
	mux.HandleFunc("/docs", h.docs)
	mux.HandleFunc("/docs/", h.doc)
	mux.HandleFunc("/flush", h.flush)
	mux.HandleFunc("/stats", h.stats)
	mux.Handle("/metrics", s.Metrics().Handler())
	mux.HandleFunc("/debug/slow", h.slow)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/readyz", h.readyz)
	if opts.AccessLog != nil {
		return obs.AccessLog(opts.AccessLog, mux)
	}
	return mux
}

type handler struct {
	store *Store
	opts  ServerOptions
	start time.Time

	// sem is the admission gate: one slot per in-flight /query. nil when
	// MaxConcurrentQueries is unset.
	sem      chan struct{}
	shed     *obs.Counter
	timeouts *obs.Counter
}

func (h *handler) query(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	if h.sem != nil {
		select {
		case h.sem <- struct{}{}:
			defer func() { <-h.sem }()
		default:
			h.shed.Inc()
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests,
				fmt.Errorf("server at max concurrent queries (%d)", h.opts.MaxConcurrentQueries))
			return
		}
	}
	ctx := r.Context()
	if h.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.opts.QueryTimeout)
		defer cancel()
	}
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		WriteError(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	max := h.opts.MaxPaths
	if m := params.Get("max"); m != "" {
		n, err := strconv.Atoi(m)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad max parameter %q", m))
			return
		}
		if n < max {
			max = n
		}
	}

	name := params.Get("doc")
	resp, err := h.store.Do(ctx, Request{Query: q, Doc: name, Max: max, Trace: params.Get("trace") == "1"})
	if err != nil {
		status, ok := h.ctxStatus(err)
		if !ok {
			status = http.StatusBadRequest
			if name != "" {
				status = statusFor(h.store, name)
			}
		}
		WriteError(w, status, err)
		return
	}
	if resp.Doc != nil {
		WriteJSON(w, http.StatusOK, resp.Doc)
		return
	}
	WriteJSON(w, http.StatusOK, resp.Fanout)
}

// DocsResponse is the /docs response.
type DocsResponse struct {
	Count int       `json:"count"`
	Docs  []DocInfo `json:"docs"`
}

func (h *handler) docs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	// One catalog snapshot for both fields, so Count always equals
	// len(Docs) even while ingest or compaction mutates the catalog.
	docs := h.store.Docs()
	WriteJSON(w, http.StatusOK, DocsResponse{Count: len(docs), Docs: docs})
}

// IngestResponse acknowledges a write.
type IngestResponse struct {
	Doc    string `json:"doc,omitempty"`
	Status string `json:"status"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// doc handles /docs/{name}: POST/PUT ingests the request body as a
// document, DELETE tombstones it.
func (h *handler) doc(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/docs/")
	if name == "" || strings.Contains(name, "/") {
		WriteError(w, http.StatusNotFound, fmt.Errorf("bad document path %q", r.URL.Path))
		return
	}
	// Full name validation up front, not just the separator check above:
	// the ingest layer re-validates, but rejecting here keeps hostile
	// names ('..', backslashes, oversized) out of every downstream log
	// and error path, and gives GETs of such names a clean 400 too.
	if err := ValidateDocName(name); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		ing := h.ingestOr403(w)
		if ing == nil {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes))
		if err != nil {
			status := http.StatusBadRequest
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				status = http.StatusRequestEntityTooLarge
			}
			WriteError(w, status, fmt.Errorf("reading body: %v", err))
			return
		}
		if err := ing.Add(name, body); err != nil {
			WriteError(w, ingestStatus(err), err)
			return
		}
		WriteJSON(w, http.StatusCreated, IngestResponse{Doc: name, Status: "ingested", Bytes: int64(len(body))})
	case http.MethodDelete:
		ing := h.ingestOr403(w)
		if ing == nil {
			return
		}
		if err := ing.Delete(name); err != nil {
			WriteError(w, ingestStatus(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, IngestResponse{Doc: name, Status: "deleted"})
	default:
		WriteError(w, http.StatusMethodNotAllowed, errors.New("POST, PUT or DELETE only"))
	}
}

// flush handles POST /flush: synchronous compaction to archives.
func (h *handler) flush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	ing := h.ingestOr403(w)
	if ing == nil {
		return
	}
	if err := ing.Flush(); err != nil {
		WriteError(w, ingestStatus(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, IngestResponse{Status: "flushed"})
}

// ingestOr403 returns the write API, or answers 403 and returns nil on a
// read-only store.
func (h *handler) ingestOr403(w http.ResponseWriter) Ingestor {
	if h.opts.Ingest == nil {
		WriteError(w, http.StatusForbidden, errors.New("store is read-only (start xcserve with -ingest)"))
		return nil
	}
	return h.opts.Ingest
}

// ingestStatus maps a write-path error to an HTTP status: client faults
// (invalid name or XML) are 400s, unknown names 404, shutdown races 503,
// anything else — WAL or compaction I/O — a 500 the client should treat
// as retryable.
func ingestStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadDocument):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// StatsResponse is the /stats response: store statistics plus server
// uptime and build identity, and the write path's counters when ingest
// is enabled.
type StatsResponse struct {
	Stats
	UptimeNanos   int64         `json:"uptime_ns"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Workers       int           `json:"workers"`
	Build         obs.BuildInfo `json:"build"`
	Ingest        *IngestStats  `json:"ingest,omitempty"`
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	uptime := time.Since(h.start)
	resp := StatsResponse{
		Stats:         h.store.Stats(),
		UptimeNanos:   int64(uptime),
		UptimeSeconds: uptime.Seconds(),
		Workers:       h.store.Workers(),
		Build:         obs.Build(),
	}
	if h.opts.Ingest != nil {
		ist := h.opts.Ingest.Stats()
		resp.Ingest = &ist
	}
	WriteJSON(w, http.StatusOK, resp)
}

// SlowResponse is the /debug/slow response: the retained slow-query
// entries, newest first.
type SlowResponse struct {
	ThresholdNanos int64           `json:"threshold_ns"`
	Total          uint64          `json:"total"` // includes ring-evicted entries
	Entries        []obs.SlowEntry `json:"entries"`
}

func (h *handler) slow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	l := h.store.SlowLog()
	if l == nil {
		WriteError(w, http.StatusNotFound, errors.New("slow-query log disabled (start xcserve with -slow-query)"))
		return
	}
	entries := l.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	WriteJSON(w, http.StatusOK, SlowResponse{
		ThresholdNanos: int64(l.Threshold()),
		Total:          l.Total(),
		Entries:        entries,
	})
}

// ReadyReporter is the optional readiness face of an Ingestor: Ready
// returns nil when the write path is drained (no compaction backlog, no
// pending background failure). The /readyz endpoint type-asserts it, so
// implementations opt in without widening the Ingestor contract.
type ReadyReporter interface {
	Ready() error
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string   `json:"status"`           // "ok" or "unavailable"
	Causes []string `json:"causes,omitempty"` // why not ready
}

// healthz handles GET /healthz: liveness only — the process is up and
// the catalog is reachable. Cluster peers probe it to drive membership.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// readyz handles GET /readyz: readiness for traffic — the store is
// open, the scrubber is not mid-quarantine (the catalog is not mutating
// under a corruption verdict), and the write path is drained. Not ready
// is 503 with the causes listed, so orchestrators and peers can act on
// the distinction between dead and temporarily unsuitable.
func (h *handler) readyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	var causes []string
	if h.store.Quarantining() {
		causes = append(causes, "scrubber is quarantining corrupt artifacts")
	}
	if rr, ok := h.opts.Ingest.(ReadyReporter); ok && h.opts.Ingest != nil {
		if err := rr.Ready(); err != nil {
			causes = append(causes, err.Error())
		}
	}
	if len(causes) > 0 {
		WriteJSON(w, http.StatusServiceUnavailable,
			HealthResponse{Status: "unavailable", Causes: causes})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// ctxStatus maps a context error to its HTTP status: a deadline hit is
// the server's -query-timeout answering 504; a bare cancellation means
// the client went away (503 is written into the void). ok is false for
// every other error.
func (h *handler) ctxStatus(err error) (status int, ok bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		h.timeouts.Inc()
		return http.StatusGatewayTimeout, true
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}

// statusFor distinguishes "no such document" (404) from query and
// evaluation failures (400).
func statusFor(s *Store, name string) int {
	if s.Has(name) {
		return http.StatusBadRequest
	}
	return http.StatusNotFound
}

// jsonAppender is a response that encodes itself (FanoutResponse).
type jsonAppender interface {
	AppendJSON(dst []byte) []byte
}

// bodyPool recycles the buffers WriteJSON encodes appender bodies into.
// Each starts empty and grows to the bodies it carries; one grown past
// maxPooledBody is left to the collector rather than pinned.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// WriteJSON writes v as the JSON response body with the given status,
// leaving HTML characters unescaped so query texts read as sent. A
// value with an AppendJSON method encodes itself into a pooled buffer,
// sent with one Write; anything else goes through encoding/json.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	if a, ok := v.(jsonAppender); ok {
		bp := bodyPool.Get().(*[]byte)
		*bp = a.AppendJSON((*bp)[:0])
		_, _ = w.Write(*bp)
		if cap(*bp) <= maxPooledBody {
			bodyPool.Put(bp)
		}
		return
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError writes the {"error": "..."} body every failed request gets.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
