// Package store manages a directory of .xca archives as a served catalog:
// the persistent serving layer the paper's Section 6 sketches ("cache
// chunks of compressed instances in secondary storage"). A Store opens the
// directory lazily — archives are catalogued by file size up front and
// decoded only when first queried — and keeps decoded documents in an LRU
// cache under a byte budget, alongside an LRU cache of compiled query
// programs.
//
// The serving path never touches XML. A cached document is the decoded
// archive (compressed skeleton + value containers) plus a core.Prepared
// full-tag instance derived from the archive DAG in one pass over its
// vertices; string conditions are distilled by one direct document-order
// walk of the value containers. Both produce exactly the instances that
// replaying the archive's SAX events (container.Archive.Events, kept for
// reconstruction and as the tests' reference) through the parse-time
// construction would, so results are identical to querying the original
// document, byte for byte.
//
// Cached documents are immutable, which makes the read path
// coordination-free: any number of Query/QueryAll calls may run
// concurrently (the only shared mutable state is the cache index, touched
// briefly per lookup), and eviction simply drops a reference — in-flight
// queries keep using the document they already hold.
//
// A Store can also serve documents that have not reached disk as archives
// yet: SetLive attaches a Live view (internal/ingest's memtable), and the
// catalog becomes the union {archives ∪ live documents}, with the live
// side winning on name collisions and live tombstones hiding archived
// documents. The write subsystem swaps freshly compacted archives in with
// AddArchive/RemoveArchive; readers never block on either.
//
// Below the loose file-per-archive tier sits the bundled cold tier
// (internal/bundle): many small archives packed into large append-only
// bundle files, catalogued at Open alongside loose archives and served
// by pread at needle offset+length — no per-document open/close, so the
// catalog stays fast at millions of small documents. PackLoose migrates
// loose archives into bundles and AuditBundles reclaims bundles whose
// tombstoned needles exceed a dead-byte threshold; both are driven by
// the ingest compactor's packing stage (or offline by xcarchive
// -pack-bundle). A loose archive always wins over a bundled needle of
// the same name, which makes every pack and replacement step
// crash-consistent without double-writing payload bytes.
package store

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bundle"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/label"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/synopsis"
	"repro/internal/xpath"
)

// Ext is the archive file extension a Store catalogues.
const Ext = ".xca"

// Default limits applied when Options fields are zero.
const (
	DefaultCacheBytes   = 256 << 20 // decoded-document budget
	DefaultProgramCache = 256       // compiled programs retained
)

// Options configures a Store.
type Options struct {
	// CacheBytes is the (approximate) byte budget for decoded documents.
	// The most recently used document is always retained, so one document
	// larger than the whole budget is still servable. <= 0 selects
	// DefaultCacheBytes.
	CacheBytes int64
	// Workers bounds QueryAll's fan-out concurrency. <= 0 selects
	// GOMAXPROCS.
	Workers int
	// ProgramCache is the number of compiled query programs retained.
	// <= 0 selects DefaultProgramCache.
	ProgramCache int
	// DisableSynopsis turns the path-synopsis index off: no sidecars are
	// read, built or written, and every fan-out scans every document.
	// For benchmarking the unpruned path and for read-only media.
	// Implies DisablePlanner (the planner consumes the index statistics).
	DisableSynopsis bool
	// DisablePlanner turns the cost-based query planner off: programs
	// evaluate in syntactic order and exists/count-shaped queries never
	// answer from synopsis statistics alone. The escape hatch for
	// benchmarking the unplanned path and for differential verification
	// (the plan-smoke CI job runs a store each way and compares bytes).
	DisablePlanner bool
	// DisableMetrics turns latency-histogram recording and per-query
	// trace timing off. Counters stay live — /stats predates the metrics
	// registry and depends on them. For benchmarking the uninstrumented
	// path (xcserve -no-metrics).
	DisableMetrics bool
	// SlowQueryThreshold retains queries at least this slow in the
	// slow-query ring served at GET /debug/slow. <= 0 disables the ring.
	SlowQueryThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity. <= 0 selects 128.
	SlowLogSize int
	// FS routes every durable read and write (archives, sidecars,
	// bundles) so the torture harness can interpose a fault injector.
	// Nil selects fault.OS, the zero-cost passthrough.
	FS fault.FS
}

// Store serves queries from a directory of archives. It is safe for
// concurrent use.
type Store struct {
	dir     string
	budget  int64
	workers int
	progCap int

	// fs routes all durable I/O; never nil after Open. Fault injectors
	// interpose here (Options.FS).
	fs fault.FS

	// reg is the store's metrics registry, m the counter and histogram
	// handles registered in it (see metrics.go), slow the optional
	// slow-query ring. Every serving counter lives in m exactly once;
	// Stats() and the /metrics exposition read the same values.
	reg  *obs.Registry
	m    *storeMetrics
	slow *obs.SlowLog

	// syn is the catalog-level path-synopsis index (nil when disabled):
	// per-document summaries over a shared label dictionary that
	// QueryAll checks to skip documents a query provably cannot match.
	// Entries track the archive catalog (Open/AddArchive/RemoveArchive);
	// live documents carry their own synopses through the Live view.
	syn *synopsis.Index

	// noPlan disables the cost-based planner (Options.DisablePlanner, or
	// implied by a disabled synopsis index — there are no statistics to
	// plan from).
	noPlan bool

	// packMu serialises the cold-tier maintenance passes (PackLoose,
	// AuditBundles) against each other. It is never held together with mu;
	// both passes take mu briefly only to snapshot or publish.
	packMu sync.Mutex

	mu       sync.Mutex
	live     Live // optional memtable view; nil when serving archives only
	entries  map[string]*entry
	names    []string // sorted
	lru      *list.List
	curBytes int64

	// bundles holds the open cold-tier bundle files by id. Entries whose
	// documents live in a bundle point at it directly (entry.b).
	bundles      map[uint64]*bundle.Bundle
	nextBundleID uint64

	progs   map[string]*list.Element
	progLRU *list.List

	// plans caches planner outcomes keyed by plan.CacheKey — query text
	// plus the dictionary version and index generation the statistics were
	// read at, so a stale plan cannot survive a catalog change. Bounded by
	// progCap, like the program cache it shadows.
	plans   map[string]*list.Element
	planLRU *list.List

	// suspects holds artifacts detected corrupt — skipped at Open or
	// failed during serving — queued for the scrubber to verify and
	// quarantine (scrub.go). Guarded by mu.
	suspects []Suspect

	// Scrubber lifecycle (scrub.go). scrubMu serialises Scrub passes;
	// stopScrub ends the background loop started by StartScrubber.
	scrubMu   sync.Mutex
	stopScrub chan struct{}
	scrubDone sync.WaitGroup

	// quarantining counts quarantine moves in flight (scrub.go): while
	// non-zero the catalog is mid-mutation from a scrub verdict and
	// /readyz reports the node not ready for traffic shifts.
	quarantining atomic.Int32
}

// entry is one catalogued document source. Exactly one tier backs it:
// path names a loose archive file, or b holds the bundle whose needle
// carries the payload. The source fields never mutate after creation —
// tier migrations replace the entry wholesale, and a loader that raced
// one retries against the fresh entry.
type entry struct {
	name      string
	path      string         // loose archive path; "" when bundled
	b         *bundle.Bundle // cold-tier bundle; nil when loose
	fileBytes int64          // loose file size, or bundled archive payload length

	// loadMu serialises decoding of this archive, so concurrent first
	// queries pay for one decode, not N.
	loadMu sync.Mutex

	// doc, elem and charged are guarded by Store.mu. doc == nil means not
	// loaded. charged is what this entry currently counts against the
	// budget: the load-time estimate plus the document's merged-instance
	// memo (re-estimated after string-condition queries).
	doc     *Doc
	elem    *list.Element
	charged int64
}

// Doc is a decoded, immutable, queryable document. Handles stay valid
// after cache eviction (eviction only drops the Store's reference).
type Doc struct {
	name     string
	archive  *container.Archive
	prep     *core.Prepared
	memBytes int64

	// lastCharge is the most recent docCharge estimate, so the per-query
	// recharge can skip the store-wide mutex when nothing grew (the
	// steady state of the coordination-free read path).
	lastCharge atomic.Int64
}

// Name returns the catalog name (the archive file name without Ext).
func (d *Doc) Name() string { return d.name }

// MemBytes is the document's estimated in-memory size, the unit of the
// cache budget.
func (d *Doc) MemBytes() int64 { return d.memBytes }

// Prepared returns the document's prepared query handle.
func (d *Doc) Prepared() *core.Prepared { return d.prep }

// Run evaluates a compiled program on the cached document.
func (d *Doc) Run(prog *xpath.Program) (*core.Result, error) { return d.prep.Run(prog) }

// Open catalogues every *.xca file and every bundle-*.xcb cold-tier
// bundle directly under dir. Archives are not decoded yet; the first
// query against each document pays its decode (a file read for loose
// archives, a pread for bundled ones).
//
// When both tiers hold a document of the same name, the loose archive
// wins — a pack that crashed before unlinking its sources, or a
// replacement written after packing, leaves a stale bundled copy behind,
// and this precedence is what makes those steps crash-consistent. Among
// bundles, the higher id wins (a GC rewrite that crashed before removing
// its source bundle). Shadowed bundled copies are tombstoned best-effort
// so dead-byte accounting sees them.
func Open(dir string, opts Options) (*Store, error) {
	fsys := fault.Get(opts.FS)
	des, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading archive directory: %w", err)
	}
	reg := obs.New()
	if opts.DisableMetrics {
		reg = obs.NewDisabled()
	}
	s := &Store{
		dir:     dir,
		fs:      fsys,
		budget:  opts.CacheBytes,
		workers: opts.Workers,
		progCap: opts.ProgramCache,
		reg:     reg,
		m:       newStoreMetrics(reg),
		slow:    obs.NewSlowLog(opts.SlowQueryThreshold, opts.SlowLogSize),
		entries: make(map[string]*entry),
		lru:     list.New(),
		progs:   make(map[string]*list.Element),
		progLRU: list.New(),
		plans:   make(map[string]*list.Element),
		planLRU: list.New(),
		bundles: make(map[uint64]*bundle.Bundle),
		noPlan:  opts.DisablePlanner || opts.DisableSynopsis,
	}
	if s.budget <= 0 {
		s.budget = DefaultCacheBytes
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.progCap <= 0 {
		s.progCap = DefaultProgramCache
	}
	var bundleIDs []uint64
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(de.Name(), Ext):
			path := filepath.Join(dir, de.Name())
			fi, err := de.Info()
			if err != nil {
				return nil, fmt.Errorf("store: stat %s: %w", path, err)
			}
			name := strings.TrimSuffix(de.Name(), Ext)
			// A garbage .xca (truncated header, wrong magic, foreign
			// file) must not fail the whole open, and must not be
			// catalogued as if servable: skip it, count it, and queue it
			// for the scrubber to quarantine.
			if err := s.probeArchive(path); err != nil {
				s.m.openSkipped.Inc()
				s.addSuspect(Suspect{Name: name, Path: path, Reason: err.Error()})
				log.Printf("store: skipping corrupt archive %s: %v", path, err)
				continue
			}
			s.entries[name] = &entry{name: name, path: path, fileBytes: fi.Size()}
			s.names = append(s.names, name)
		case strings.HasSuffix(de.Name(), bundle.Ext):
			id, ok := bundle.ParseID(de.Name())
			if !ok {
				continue // not a bundle data file (foreign .xcb)
			}
			bundleIDs = append(bundleIDs, id)
		}
	}
	if err := s.openBundles(bundleIDs); err != nil {
		s.Close()
		return nil, err
	}
	sort.Strings(s.names)
	if !opts.DisableSynopsis {
		s.syn = synopsis.NewIndex()
		loggedWriteErr := false
		var drop []string
		for _, name := range s.names {
			if syn := s.entrySynopsis(s.entries[name], &loggedWriteErr); syn != nil {
				s.syn.Put(name, syn)
			} else {
				// nil: the source itself is undecodable (the synopsis
				// pass doubles as an integrity check). Catalogue the
				// corpse for the scrubber instead of the serving map.
				drop = append(drop, name)
			}
		}
		for _, name := range drop {
			e := s.entries[name]
			src, bundled := e.path, false
			if e.b != nil {
				src, bundled = e.b.Path(), true
			}
			s.m.openSkipped.Inc()
			s.addSuspect(Suspect{Name: name, Path: src, Bundled: bundled,
				Reason: "undecodable archive (synopsis pass)"})
			log.Printf("store: skipping undecodable document %q in %s", name, src)
			delete(s.entries, name)
			if i := sort.SearchStrings(s.names, name); i < len(s.names) && s.names[i] == name {
				s.names = append(s.names[:i], s.names[i+1:]...)
			}
		}
	}
	obs.RegisterRuntime(reg)
	s.registerGauges()
	return s, nil
}

// openBundles opens every catalogued bundle in ascending id order,
// merging their live needles into the entry map under the tier
// precedence rules, and tombstones shadowed copies. Called from Open
// before any concurrency exists.
func (s *Store) openBundles(ids []uint64) error {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type staleNeedle struct {
		b    *bundle.Bundle
		name string
	}
	var stale []staleNeedle
	for _, id := range ids {
		b, err := bundle.OpenFS(s.fs, filepath.Join(s.dir, bundle.FileName(id)))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if b.Rebuilt() {
			s.m.bundleRebuilds.Inc()
		}
		s.bundles[b.ID()] = b
		if b.ID() >= s.nextBundleID {
			s.nextBundleID = b.ID() + 1
		}
		for _, name := range b.Names() {
			if cur, ok := s.entries[name]; ok {
				if cur.b == nil {
					// Loose wins: this needle is a stale pack leftover.
					stale = append(stale, staleNeedle{b, name})
					continue
				}
				// Higher id wins: the lower bundle's copy is stale.
				stale = append(stale, staleNeedle{cur.b, name})
			} else {
				s.names = append(s.names, name)
			}
			ref, _ := b.Ref(name)
			s.entries[name] = &entry{name: name, b: b, fileBytes: ref.ArchiveLen}
		}
	}
	// Hygiene: tombstone shadowed copies so their bytes count as dead and
	// the auditor reclaims them. Best-effort — a failure (read-only media)
	// just leaves the precedence rules to keep hiding them.
	for _, sn := range stale {
		_ = sn.b.Delete(sn.name)
	}
	return nil
}

// entrySynopsis loads or rebuilds the synopsis for one catalogued
// document at Open. Loose entries read the sidecar file next to the
// archive, rebuilding and re-persisting it when absent or unusable.
// Bundled entries read the sidecar needle section; when it is missing or
// stale-paired the synopsis is rebuilt from the needle's skeleton in
// memory only — sealed bundles are immutable, so the rebuild repeats
// each open until the auditor rewrites the bundle. Returns nil when the
// source itself cannot be decoded.
func (s *Store) entrySynopsis(e *entry, loggedWriteErr *bool) *synopsis.Synopsis {
	dict := s.syn.Dict()
	if e.b != nil {
		if data, ok, err := e.b.Sidecar(e.name); err == nil && ok {
			syn, archiveBytes, err := synopsis.DecodeSidecar(data, dict)
			if err == nil && archiveBytes == e.fileBytes {
				return syn
			}
		}
		data, err := e.b.Archive(e.name)
		if err != nil {
			return nil
		}
		skel, err := codec.DecodeSkeletonBytes(data)
		if err != nil {
			return nil
		}
		s.m.synBuilds.Inc()
		return synopsis.Build(skel, dict, synopsis.Options{})
	}
	syn, err := synopsis.LoadSidecarFS(s.fs, synopsis.SidecarPath(e.path), dict, e.fileBytes)
	if err == nil {
		return syn
	}
	// Absent, torn, version-mismatched or stale-paired sidecar: rebuild
	// it from the archive's skeleton (a cheap streaming decode that never
	// materialises the value containers) — the one-time migration for
	// stores that predate the index.
	syn, werr := buildSidecar(s.fs, e.path, e.fileBytes, dict)
	if syn == nil {
		return nil
	}
	s.m.synBuilds.Inc()
	if werr != nil {
		// Not fatal — the synopsis serves from memory and the next open
		// rebuilds it — but it must not be invisible: every open repeats
		// the full-skeleton pass until the write lands.
		s.m.synWriteErrs.Inc()
		if !*loggedWriteErr {
			log.Printf("store: persisting synopsis sidecar failed (serving from memory, rebuilt next open): %v", werr)
			*loggedWriteErr = true
		}
	}
	return syn
}

// buildSidecar summarises the archive at path and persists the sidecar
// next to it, returning a nil synopsis if the archive cannot be decoded.
// A synopsis with a non-nil error means the summary is usable but the
// sidecar write failed; the caller decides how loudly to report that.
func buildSidecar(fsys fault.FS, path string, fileBytes int64, dict *synopsis.Dict) (*synopsis.Synopsis, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	skel, err := codec.DecodeSkeleton(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	syn := synopsis.Build(skel, dict, synopsis.Options{})
	if err := synopsis.WriteSidecarFS(fsys, synopsis.SidecarPath(path), syn, dict, fileBytes); err != nil {
		return syn, err
	}
	return syn, nil
}

// Dir returns the directory the store serves.
func (s *Store) Dir() string { return s.dir }

// FS returns the store's filesystem handle — fault.OS unless Options.FS
// interposed an injector. The write subsystem defaults to it so one
// injector covers every durable path.
func (s *Store) FS() fault.FS { return s.fs }

// Len returns the number of servable documents (archives plus live
// documents, minus live tombstones).
func (s *Store) Len() int { return len(s.Names()) }

// Workers returns the fan-out concurrency bound.
func (s *Store) Workers() int { return s.workers }

// Live is a read view of documents that exist only in memory so far —
// ingested but not yet compacted into archives. Implementations
// (internal/ingest's memtable) must be safe for concurrent use; the
// Store never calls them while holding its own lock.
type Live interface {
	// LiveDoc returns the live document named name. deleted reports a
	// tombstone, which hides any archived document of that name.
	LiveDoc(name string) (doc *Doc, deleted bool)
	// LiveNames returns the current live and tombstoned names, each
	// sorted ascending.
	LiveNames() (live, deleted []string)
	// LiveSynopsis returns the synopsis of the live document named name
	// (nil when it has none — the document is then always scanned) and
	// whether the name is live at all. When live is false the caller
	// falls through to the archive index; a live synopsis always
	// describes the live version, so a replacement ingested over an
	// archived name can never be pruned by the stale archive synopsis.
	LiveSynopsis(name string) (syn *synopsis.Synopsis, live bool)
}

// Synopses returns the catalog-level path-synopsis index, or nil when
// Options.DisableSynopsis turned it off. The write path builds its
// per-document synopses against this index's dictionary and hands them
// to AddArchive at compaction time.
func (s *Store) Synopses() *synopsis.Index { return s.syn }

// SetLive attaches the live view queries consult before the archive
// catalog. Call before serving (xcserve attaches the ingester right
// after Open).
func (s *Store) SetLive(l Live) {
	s.mu.Lock()
	s.live = l
	s.mu.Unlock()
}

func (s *Store) liveView() Live {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Names returns the servable document names in sorted order: the union
// of archived and live names, minus tombstoned ones. The live view is
// read before the archive catalog: a document mid-compaction is added to
// the catalog before it leaves the memtable, so with this order it shows
// up in at least one of the two snapshots (possibly both, deduped) and
// never disappears transiently.
func (s *Store) Names() []string {
	var live, deleted []string
	if l := s.liveView(); l != nil {
		live, deleted = l.LiveNames()
	}
	s.mu.Lock()
	names := append([]string(nil), s.names...)
	s.mu.Unlock()
	if len(live) == 0 && len(deleted) == 0 {
		return names
	}
	drop := make(map[string]bool, len(live)+len(deleted))
	for _, n := range live {
		drop[n] = true // re-added below, deduped
	}
	for _, n := range deleted {
		drop[n] = true
	}
	merged := make([]string, 0, len(names)+len(live))
	for _, n := range names {
		if !drop[n] {
			merged = append(merged, n)
		}
	}
	merged = append(merged, live...)
	sort.Strings(merged)
	return merged
}

// Doc returns the decoded document named name — the live (memtable)
// version if one exists, else the archived one, loading and caching it
// on first use. Concurrent callers for the same archive share one
// decode. A load that fails because the document migrated tiers mid-read
// (PackLoose unlinked the loose file, or an audit rewrote the bundle)
// retries once against the freshly catalogued entry.
func (s *Store) Doc(name string) (*Doc, error) {
	return s.doc(name, nil)
}

// doc is Doc with decode accounting: a cache miss charges the decoded
// bytes to the store counter and, when tr is non-nil, to the query's
// trace.
func (s *Store) doc(name string, tr *obs.Trace) (*Doc, error) {
	if l := s.liveView(); l != nil {
		if d, deleted := l.LiveDoc(name); d != nil {
			return d, nil
		} else if deleted {
			return nil, fmt.Errorf("store: no document %q", name)
		}
	}
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		e, ok := s.entries[name]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("store: no document %q", name)
		}
		if d := s.touchLocked(e); d != nil {
			s.mu.Unlock()
			return d, nil
		}
		s.mu.Unlock()

		d, err := s.loadThrough(e, tr)
		if err != nil {
			// If the catalogued entry changed under us the source moved
			// (tier migration or replacement) and the error is expected
			// collateral: retry against the new entry, once.
			s.mu.Lock()
			cur := s.entries[name]
			s.mu.Unlock()
			if attempt == 0 && cur != nil && cur != e {
				continue
			}
			return nil, err
		}
		return d, nil
	}
}

// loadThrough decodes e's document with the per-entry load lock held,
// installing the result in the cache if e is still catalogued.
func (s *Store) loadThrough(e *entry, tr *obs.Trace) (*Doc, error) {
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	// A concurrent loader may have finished while we waited.
	s.mu.Lock()
	if d := s.touchLocked(e); d != nil {
		s.mu.Unlock()
		return d, nil
	}
	s.mu.Unlock()

	d, err := s.loadEntry(e, tr)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	// Install only if this entry is still the catalogued one: a
	// concurrent AddArchive/RemoveArchive may have replaced it while we
	// decoded, and charging an orphaned entry would leak budget on an
	// object no lookup can reach. The caller still gets a valid doc.
	if s.entries[e.name] == e {
		e.doc = d
		e.elem = s.lru.PushFront(e)
		e.charged = docCharge(d)
		d.lastCharge.Store(e.charged)
		s.curBytes += e.charged
		s.m.docMisses.Inc()
		s.evictLocked()
	}
	s.mu.Unlock()
	return d, nil
}

// Has reports whether name is currently servable (live or archived, and
// not tombstoned).
func (s *Store) Has(name string) bool {
	if l := s.liveView(); l != nil {
		if d, deleted := l.LiveDoc(name); d != nil {
			return true
		} else if deleted {
			return false
		}
	}
	s.mu.Lock()
	_, ok := s.entries[name]
	s.mu.Unlock()
	return ok
}

// Classification sentinels for write-path errors, wrapped by
// internal/ingest and unwrapped by the HTTP layer to pick a status code.
var (
	// ErrBadDocument marks client faults: invalid document name or XML.
	ErrBadDocument = errors.New("bad document")
	// ErrNotFound marks writes that name a document that does not exist
	// (e.g. deleting an unknown name).
	ErrNotFound = errors.New("no such document")
	// ErrUnavailable marks writes rejected because the ingester has shut
	// down; the client should retry against a live server.
	ErrUnavailable = errors.New("ingest unavailable")
)

// AddArchive swaps a (new or replacement) archive file into the catalog
// — the compactor's publish step. Any cached decode of a previous
// archive under this name is dropped; in-flight queries keep the
// document they already hold. A non-nil warm document (the compactor has
// the decoded form in hand — byte-identical to what decoding path would
// yield) seeds the cache, so the first post-compaction query does not
// pay a redundant disk read + decode. syn is the archive's synopsis
// (built against Synopses().Dict(); its sidecar should already be on
// disk); nil drops any previous synopsis for the name, so a stale
// summary can never outlive the document it described.
func (s *Store) AddArchive(name, path string, warm *Doc, syn *synopsis.Synopsis) error {
	fi, err := s.fs.Stat(path)
	if err != nil {
		return fmt.Errorf("store: adding archive: %w", err)
	}
	if s.syn != nil {
		s.syn.Put(name, syn)
	}
	var stale *bundle.Bundle
	s.mu.Lock()
	if old, ok := s.entries[name]; ok {
		s.dropLocked(old)
		stale = old.b
	} else {
		i := sort.SearchStrings(s.names, name)
		s.names = append(s.names, "")
		copy(s.names[i+1:], s.names[i:])
		s.names[i] = name
	}
	e := &entry{name: name, path: path, fileBytes: fi.Size()}
	s.entries[name] = e
	if warm != nil {
		e.doc = warm
		e.elem = s.lru.PushFront(e)
		e.charged = docCharge(warm)
		warm.lastCharge.Store(e.charged)
		s.curBytes += e.charged
		s.evictLocked()
	}
	s.mu.Unlock()
	if stale != nil {
		// The replaced document lived in a bundle; its needle is now dead
		// weight. Tombstone it (outside s.mu — Delete fsyncs) so the
		// auditor sees the bytes. Best-effort: the loose archive shadows
		// the needle either way, at every future open.
		_ = stale.Delete(name)
	}
	return nil
}

// RemoveArchive removes name from the archive catalog (the compactor's
// tombstone step). Unknown names are a no-op.
func (s *Store) RemoveArchive(name string) {
	if s.syn != nil {
		s.syn.Remove(name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		return
	}
	s.dropLocked(e)
	delete(s.entries, name)
	if i := sort.SearchStrings(s.names, name); i < len(s.names) && s.names[i] == name {
		s.names = append(s.names[:i], s.names[i+1:]...)
	}
}

// dropLocked forgets e's cached decode, if any. Caller holds s.mu.
func (s *Store) dropLocked(e *entry) {
	if e.doc == nil {
		return
	}
	s.lru.Remove(e.elem)
	s.curBytes -= e.charged
	e.doc, e.elem, e.charged = nil, nil, 0
}

// docCharge is what a cached document currently costs: the decoded
// archive and instance, the merged-instance memo (grown by
// string-condition queries), and the frozen views' lazily-built caches
// — topological orders, tree size, path counts, per-label selection
// columns (Prepared.AuxBytes; grown by queries of every kind).
func docCharge(d *Doc) int64 {
	mv, me, aux := d.prep.Footprint()
	return d.memBytes + int64(mv)*vertexOverhead + int64(me)*edgeBytes + aux
}

// recharge re-estimates a cached document's footprint after a query may
// have grown its memo or frozen-view caches, and charges the difference
// against the budget. Unchanged estimates (every warm query after the
// caches stabilise) return without touching the store mutex.
func (s *Store) recharge(name string, d *Doc) {
	charge := docCharge(d)
	if d.lastCharge.Load() == charge {
		return
	}
	s.mu.Lock()
	// Live (memtable) documents are not charged against the archive
	// cache budget; the write subsystem accounts for them.
	if e, ok := s.entries[name]; ok && e.doc == d && charge != e.charged {
		s.curBytes += charge - e.charged
		e.charged = charge
		s.evictLocked()
	}
	// Advance lastCharge only here, serialized with the commit above: a
	// racing recharge that loses the interleaving leaves lastCharge and
	// entry.charged momentarily stale together, and the next query's
	// Load check sees the mismatch and re-commits — never a permanent
	// skew between the fast path and the charged budget.
	d.lastCharge.Store(charge)
	s.mu.Unlock()
}

// touchLocked returns e's document and refreshes its recency, or nil if e
// is not loaded. Caller holds s.mu.
func (s *Store) touchLocked(e *entry) *Doc {
	if e.doc == nil {
		return nil
	}
	s.lru.MoveToFront(e.elem)
	s.m.docHits.Inc()
	return e.doc
}

// evictLocked drops least-recently-used documents until the budget is met,
// always retaining the most recent one so a single oversized document
// remains servable. Caller holds s.mu.
func (s *Store) evictLocked() {
	for s.curBytes > s.budget && s.lru.Len() > 1 {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		s.curBytes -= e.charged
		e.doc = nil
		e.elem = nil
		e.charged = 0
		s.m.evictions.Inc()
	}
}

// loadEntry decodes e's document from whichever tier backs it, charging
// the decoded bytes to the store counter and the query's trace (tr may
// be nil — fan-out workers share one trace, whose byte counter is
// atomic).
func (s *Store) loadEntry(e *entry, tr *obs.Trace) (*Doc, error) {
	if e.b == nil {
		d, err := loadDoc(s.fs, e.name, e.path)
		if err == nil {
			s.m.decodeBytes.Add(uint64(e.fileBytes))
			tr.AddDecodedBytes(e.fileBytes)
		}
		return d, err
	}
	data, err := e.b.Archive(e.name)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.m.bundleReads.Inc()
	s.m.bundleReadBytes.Add(uint64(len(data)))
	a, err := codec.DecodeArchiveBytes(data)
	if err != nil {
		return nil, fmt.Errorf("store: decoding %q from %s: %w", e.name, e.b.Path(), err)
	}
	d, err := NewDoc(e.name, a)
	if err != nil {
		return nil, fmt.Errorf("store: rebuilding skeleton of %q: %w", e.name, err)
	}
	s.m.decodeBytes.Add(uint64(len(data)))
	tr.AddDecodedBytes(int64(len(data)))
	return d, nil
}

// loadDoc reads and decodes one archive file and derives its prepared
// instance from the archive — no XML is parsed or even present.
func loadDoc(fsys fault.FS, name, path string) (*Doc, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	a, err := codec.DecodeArchiveBytes(data)
	if err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", path, err)
	}
	d, err := NewDoc(name, a)
	if err != nil {
		return nil, fmt.Errorf("store: rebuilding skeleton of %s: %w", path, err)
	}
	return d, nil
}

// NewDoc builds a servable document from an in-memory archive: the
// full-tag instance is derived from the archive DAG
// (container.Archive.TagSkeleton), and string conditions are distilled
// on demand by a direct walk of the value containers
// (container.Archive.DistillStrings). Both equal what replaying the
// archive's events would build. Decoding an archive file yields exactly
// this, which is what lets the write path (internal/ingest) serve
// memtable documents that are indistinguishable from archived ones. The
// archive is retained; the caller must not mutate it afterwards.
func NewDoc(name string, a *container.Archive) (*Doc, error) {
	base, err := a.TagSkeleton()
	if err != nil {
		return nil, err
	}
	prep := core.NewPrepared(base, a.DistillStrings)
	return &Doc{
		name:     name,
		archive:  a,
		prep:     prep,
		memBytes: archiveMemBytes(a) + instanceMemBytes(base),
	}, nil
}

// Rough per-object overheads for the cache's byte accounting. The budget
// is a sizing knob, not an allocator: estimates only need to scale with
// the real footprint.
const (
	vertexOverhead = 56 // Vertex struct, slice headers, label set
	edgeBytes      = 8  // dag.Edge
	stringOverhead = 16 // string header
)

func instanceMemBytes(in *dag.Instance) int64 {
	b := int64(in.NumVertices())*vertexOverhead + int64(in.NumEdges())*edgeBytes
	for _, name := range in.Schema.Names() {
		b += int64(len(name)) + stringOverhead
	}
	return b
}

func archiveMemBytes(a *container.Archive) int64 {
	return instanceMemBytes(a.Skeleton) +
		int64(a.Store.TotalBytes()) +
		int64(a.Store.NumChunks())*stringOverhead
}

// Program returns the compiled form of query, caching compilations in an
// LRU keyed by the query text. Programs are schema-independent (relations
// are resolved by name at evaluation time), so one cached program serves
// every document in the store.
func (s *Store) Program(query string) (*xpath.Program, error) {
	s.mu.Lock()
	if el, ok := s.progs[query]; ok {
		s.progLRU.MoveToFront(el)
		s.m.progHits.Inc()
		prog := el.Value.(*progEntry).prog
		s.mu.Unlock()
		return prog, nil
	}
	s.m.progMisses.Inc()
	s.mu.Unlock()

	prog, err := xpath.CompileQuery(query)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if _, ok := s.progs[query]; !ok {
		s.progs[query] = s.progLRU.PushFront(&progEntry{query: query, prog: prog})
		for s.progLRU.Len() > s.progCap {
			back := s.progLRU.Back()
			pe := back.Value.(*progEntry)
			s.progLRU.Remove(back)
			delete(s.progs, pe.query)
		}
	}
	s.mu.Unlock()
	return prog, nil
}

type progEntry struct {
	query string
	prog  *xpath.Program
}

// planEntry is one cached planner outcome: the (possibly reordered)
// plan and the chain labels resolved against the dictionary version the
// cache key pins.
type planEntry struct {
	key   string
	pl    *plan.Plan
	chain []label.ID // resolved ChainShape labels; nil when not chain-shaped
}

// planFor plans one compiled query against the synopsis statistics,
// caching the outcome. The cache key binds the plan to the dictionary
// version and index generation its statistics were read at, so catalog
// changes (AddArchive/RemoveArchive, new labels) invalidate by key
// mismatch — stale entries just age out of the LRU. With the planner
// disabled the original program evaluates as-is.
func (s *Store) planFor(query string, prog *xpath.Program) (*plan.Plan, []label.ID) {
	if s.noPlan || s.syn == nil {
		return &plan.Plan{Prog: prog}, nil
	}
	key := plan.CacheKey(query, uint64(s.syn.Dict().Len()), s.syn.Generation())
	s.mu.Lock()
	if el, ok := s.plans[key]; ok {
		s.planLRU.MoveToFront(el)
		pe := el.Value.(*planEntry)
		s.mu.Unlock()
		return pe.pl, pe.chain
	}
	s.mu.Unlock()

	pl := plan.Build(prog, s.syn)
	var chain []label.ID
	if pl.Chain != nil {
		chain = s.syn.Dict().ResolveChain(pl.Chain.Labels)
	}
	if pl.Reordered {
		s.m.planReordered.Inc()
	}

	s.mu.Lock()
	if _, ok := s.plans[key]; !ok {
		s.plans[key] = s.planLRU.PushFront(&planEntry{key: key, pl: pl, chain: chain})
		for s.planLRU.Len() > s.progCap {
			back := s.planLRU.Back()
			pe := back.Value.(*planEntry)
			s.planLRU.Remove(back)
			delete(s.plans, pe.key)
		}
	}
	s.mu.Unlock()
	return pl, chain
}

// Query evaluates one query against one document, through both caches.
// The planner's reordered program is used (cheapest operands first) but
// the synopsis-direct shortcut is not: a single-document caller is about
// to touch the document anyway, and its response reports evaluation
// statistics a direct answer cannot supply.
func (s *Store) Query(name, query string) (*core.Result, error) {
	res, tr, err := s.QueryTrace(name, query, false)
	s.CloseTrace(tr, err)
	return res, err
}

// QueryCtx is Query honoring ctx: evaluation is skipped once the
// context is cancelled or past its deadline, and the context's error is
// returned.
func (s *Store) QueryCtx(ctx context.Context, name, query string) (*core.Result, error) {
	res, tr, err := s.QueryTraceCtx(ctx, name, query, false)
	s.CloseTrace(tr, err)
	return res, err
}

// QueryTrace is Query with a stage-timed trace: plan (compile +
// planning), load (cache lookup or decode) and eval spans, plus the
// decoded-byte count. The returned trace is unfinalized — the caller
// records its materialize span (response assembly) and then must pass
// the trace to CloseTrace, which stamps the total and feeds the latency
// histograms and slow-query log. tr is nil (and safe to pass on) when
// tracing is off and force is false.
func (s *Store) QueryTrace(name, query string, force bool) (*core.Result, *obs.Trace, error) {
	return s.QueryTraceCtx(context.Background(), name, query, force)
}

// QueryTraceCtx is QueryTrace honoring ctx. Cancellation is checked
// between stages (an evaluation already running finishes — fn is never
// interrupted mid-call); once ctx is done the context's error is
// returned and no further work starts.
func (s *Store) QueryTraceCtx(ctx context.Context, name, query string, force bool) (*core.Result, *obs.Trace, error) {
	tr := s.newTrace(query, name, force)
	t0 := tr.Now()
	prog, err := s.Program(query)
	if err != nil {
		tr.Record(obs.StagePlan, t0)
		return nil, tr, err
	}
	pl, _ := s.planFor(query, prog)
	tr.Record(obs.StagePlan, t0)
	if err := ctx.Err(); err != nil {
		return nil, tr, err
	}

	t0 = tr.Now()
	d, err := s.doc(name, tr)
	tr.Record(obs.StageLoad, t0)
	if tr != nil {
		tr.Considered = 1
	}
	if err != nil {
		if tr != nil {
			tr.Failed = 1
		}
		s.noteDocFailure(name, err)
		return nil, tr, err
	}
	if err := ctx.Err(); err != nil {
		return nil, tr, err
	}
	s.m.queries.Inc()
	t0 = tr.Now()
	res, err := d.Run(pl.Prog)
	tr.Record(obs.StageEval, t0)
	if err == nil {
		if tr != nil {
			tr.Scanned = 1
		}
		// Tag-only queries grow the frozen view's caches too (path
		// counts, label columns), so every query re-estimates.
		s.recharge(name, d)
	} else if tr != nil {
		tr.Failed = 1
	}
	return res, tr, err
}

// QueryAll evaluates one query against every catalogued document and
// returns one result per document in name order, like core.Pool.QueryAll.
// The path-synopsis index is consulted first: documents whose synopsis
// proves the query cannot match are skipped entirely — not loaded, not
// decoded, not evaluated — and report a Pruned empty result. The rest
// are loaded (or fetched from cache) concurrently, then every
// evaluation fans out on the worker pool directly against the shared
// frozen instances — the coordination-free read path: nothing is cloned,
// workers share only the read-only bases and program, and each query's
// writes live in its own pooled overlay (engine.RunFrozen via
// core.Prepared.Run). Pruning is coordination-free too: synopses are
// immutable, the index lock covers one map read per document, and a
// pruned answer for a name racing a concurrent replacement is the
// correct (empty) answer for the version the synopsis described — the
// same per-document snapshot semantics unpruned fan-out already has.
// Programs with string conditions distil per document on the same pool.
// Per-document failures are reported in the results, not as a call
// error.
func (s *Store) QueryAll(query string) ([]core.BatchResult, error) {
	out, tr, err := s.QueryAllTrace(query, false)
	s.CloseTrace(tr, err)
	return out, err
}

// QueryAllCtx is QueryAll honoring ctx: once the context is cancelled
// or past its deadline no further documents are loaded or evaluated,
// and the context's error is returned as the call error. Per-document
// corruption never cancels the fan-out — only the caller's ctx does.
func (s *Store) QueryAllCtx(ctx context.Context, query string) ([]core.BatchResult, error) {
	out, tr, err := s.QueryAllTraceCtx(ctx, query, false)
	s.CloseTrace(tr, err)
	return out, err
}

// QueryAllTrace is QueryAll with a stage-timed trace: plan, prune,
// direct, load and eval spans, plus the fan-out's document accounting
// (considered/pruned/direct/scanned/failed) and decoded bytes. Like
// QueryTrace, the returned trace is unfinalized and must reach
// CloseTrace; it is nil when tracing is off and force is false.
func (s *Store) QueryAllTrace(query string, force bool) ([]core.BatchResult, *obs.Trace, error) {
	return s.QueryAllTraceCtx(context.Background(), query, force)
}

// QueryAllTraceCtx is QueryAllTrace honoring ctx. Cancellation is
// cooperative: once ctx is done no further documents are dispatched
// (loads and evaluations already running finish), and the context's
// error is returned as the call error with nil results — the fan-out
// has no complete answer to give. Per-document failures (corrupt
// archives included) still land in their result slots and never fail
// the call.
func (s *Store) QueryAllTraceCtx(ctx context.Context, query string, force bool) ([]core.BatchResult, *obs.Trace, error) {
	tr := s.newTrace(query, "", force)
	t0 := tr.Now()
	prog, err := s.Program(query)
	if err != nil {
		tr.Record(obs.StagePlan, t0)
		return nil, tr, err
	}
	pl, chain := s.planFor(query, prog)
	tr.Record(obs.StagePlan, t0)
	eval := pl.Prog
	names := s.Names()
	out := make([]core.BatchResult, len(names))
	docs := make([]*Doc, len(names))
	t0 = tr.Now()
	skip := s.pruneSet(prog, names, out)
	tr.Record(obs.StagePrune, t0)
	t0 = tr.Now()
	skip = s.directSet(pl, chain, eval, names, out, skip)
	tr.Record(obs.StageDirect, t0)
	t0 = tr.Now()
	err = s.forEachCtx(ctx, len(names), func(i int) {
		out[i].Name = names[i]
		if skip != nil && skip[i] {
			return
		}
		docs[i], out[i].Err = s.doc(names[i], tr)
		if out[i].Err != nil {
			s.noteDocFailure(names[i], out[i].Err)
		}
	})
	tr.Record(obs.StageLoad, t0)
	if err != nil {
		return nil, tr, err
	}

	scanned := uint64(len(names))
	t0 = tr.Now()
	err = s.forEachCtx(ctx, len(names), func(i int) {
		if out[i].Err != nil || (skip != nil && skip[i]) {
			return
		}
		out[i].Result, out[i].Err = docs[i].Run(eval)
		if out[i].Err == nil {
			s.recharge(names[i], docs[i])
		}
	})
	tr.Record(obs.StageEval, t0)
	if err != nil {
		return nil, tr, err
	}
	if skip != nil {
		for _, sk := range skip {
			if sk {
				scanned--
			}
		}
	}
	s.m.queries.Add(scanned)
	if tr != nil {
		tr.Considered = len(names)
		for i := range out {
			switch {
			case out[i].Pruned:
				tr.Pruned++
			case out[i].Direct:
				tr.Direct++
			case out[i].Err != nil:
				tr.Failed++
			default:
				tr.Scanned++
			}
		}
	}
	return out, tr, nil
}

// directSet marks every document an exists/count-shaped plan can answer
// from its synopsis statistics alone, filling its result slot with a
// Direct result — no load, no decode, no evaluation. Documents already
// pruned stay pruned (an exact-zero chain count and a signature proof
// agree). The returned skip set is the union of pruned and direct
// documents; nil means nothing was skippable either way. Count-shaped
// direct results carry a fallback that evaluates the planned program for
// real if a consumer asks for paths or an instance — counted as a
// planner fallback, and charged like any other query.
func (s *Store) directSet(pl *plan.Plan, chain []label.ID, eval *xpath.Program, names []string, out []core.BatchResult, skip []bool) []bool {
	if s.syn == nil || pl.Chain == nil || chain == nil {
		return skip
	}
	live := s.liveView()
	direct := uint64(0)
	for i, name := range names {
		if skip != nil && skip[i] {
			continue
		}
		count, exact := s.docSynopsis(live, name).ChainCount(chain)
		if !exact {
			continue
		}
		if skip == nil {
			skip = make([]bool, len(names))
		}
		skip[i] = true
		out[i].Direct = true
		direct++
		switch {
		case pl.Chain.Exists:
			out[i].Result = core.ExistsResult(count > 0)
		case count == 0:
			out[i].Result = core.ExistsResult(false)
		default:
			nm := name
			out[i].Result = core.DirectResult(count, func() (*core.Result, error) {
				s.m.planFallback.Inc()
				d, err := s.Doc(nm)
				if err != nil {
					return nil, err
				}
				res, err := d.Run(eval)
				if err == nil {
					s.recharge(nm, d)
				}
				return res, err
			})
		}
	}
	s.m.planDirect.Add(direct)
	return skip
}

// docSynopsis returns the synopsis describing the currently served
// version of name: the live document's own synopsis when the name is
// live (so a replacement ingested over an archived name is never judged
// by the stale archive summary), else the indexed one. May be nil —
// every consumer (CanMatch, ChainCount) treats nil as "no information".
func (s *Store) docSynopsis(live Live, name string) *synopsis.Synopsis {
	if live != nil {
		if ls, isLive := live.LiveSynopsis(name); isLive {
			return ls
		}
	}
	return s.syn.Get(name)
}

// pruneSet consults the synopsis index for one fan-out: it resolves the
// program's signature once against the shared dictionary and marks every
// document whose synopsis proves emptiness, filling its result slot with
// a Pruned empty result. Returns nil when nothing can prune (index
// disabled, or the signature carries no checkable fact). Live documents
// are judged by their own synopses (via the Live view), archived ones by
// the index; documents with no synopsis anywhere are scanned.
func (s *Store) pruneSet(prog *xpath.Program, names []string, out []core.BatchResult) []bool {
	if s.syn == nil {
		return nil
	}
	rs := s.syn.Resolve(prog.Sig)
	if rs == nil {
		return nil
	}
	live := s.liveView()
	skip := make([]bool, len(names))
	pruned := 0
	for i, name := range names {
		if !s.docSynopsis(live, name).CanMatch(rs) {
			skip[i] = true
			out[i].Pruned = true
			out[i].Result = core.EmptyResult()
			pruned++
		}
	}
	// Considered before pruned, matching the load order in Stats (pruned
	// first), so considered >= pruned under any interleaving.
	s.m.pruneConsidered.Add(uint64(len(names)))
	s.m.prunePruned.Add(uint64(pruned))
	return skip
}

// forEach runs fn(i) for i in [0, n) on the store's worker pool.
func (s *Store) forEach(n int, fn func(i int)) {
	engine.ForEach(n, s.workers, fn)
}

// forEachCtx is forEach with cooperative cancellation: once ctx is done
// no further indices are dispatched and the context's error is
// returned. Indices never dispatched are left untouched in the caller's
// slices.
func (s *Store) forEachCtx(ctx context.Context, n int, fn func(i int)) error {
	return engine.ForEachCtx(ctx, n, s.workers, fn)
}

// noteDocFailure classifies a per-document serving failure inside a
// query: every one counts as a degraded serve, and decode corruption
// additionally queues the artifact as a scrub suspect so the background
// scrubber verifies and quarantines it instead of the read path
// tripping over it forever. Cancellation errors are the caller's doing,
// not degradation.
func (s *Store) noteDocFailure(name string, err error) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.m.degradedDocs.Inc()
	if !errors.Is(err, codec.ErrCorrupt) {
		return
	}
	s.mu.Lock()
	e := s.entries[name]
	s.mu.Unlock()
	if e == nil {
		return
	}
	su := Suspect{Name: name, Path: e.path, Reason: err.Error()}
	if e.b != nil {
		su.Path, su.Bundled = e.b.Path(), true
	}
	s.addSuspect(su)
}

// Stats is a point-in-time snapshot of the store's caches and counters.
type Stats struct {
	Docs   int `json:"docs"`   // catalogued archives
	Loaded int `json:"loaded"` // currently decoded and cached

	CacheBytes  int64 `json:"cache_bytes"`  // estimated bytes of cached documents
	BudgetBytes int64 `json:"budget_bytes"` // configured budget

	DocHits   uint64 `json:"doc_hits"`
	DocMisses uint64 `json:"doc_misses"` // decodes performed
	Evictions uint64 `json:"evictions"`

	ProgramsCached int    `json:"programs_cached"`
	ProgramHits    uint64 `json:"program_hits"`
	ProgramMisses  uint64 `json:"program_misses"`

	Queries uint64 `json:"queries"` // per-document evaluations served

	// Path-synopsis index counters. Considered counts every
	// (query, document) pair a fan-out looked at; Pruned the pairs the
	// index skipped without touching the document; Scanned the rest.
	SynopsisDocs        int    `json:"synopsis_docs"`   // archives with an indexed synopsis
	SynopsisBytes       int64  `json:"synopsis_bytes"`  // estimated index memory
	SynopsisBuilds      uint64 `json:"synopsis_builds"` // sidecars rebuilt at open
	SynopsisWriteErrors uint64 `json:"synopsis_write_errors"`
	PruneConsidered     uint64 `json:"prune_considered"`
	PrunePruned         uint64 `json:"prune_pruned"`
	PruneScanned        uint64 `json:"prune_scanned"`

	// Cost-based planner counters. Reordered counts plan builds that
	// changed evaluation order; SynopsisDirect documents answered from
	// synopsis statistics without touching the document; Fallback direct
	// results that later evaluated for real (a consumer wanted paths or
	// an instance).
	PlanReordered      uint64 `json:"plan_reordered"`
	PlanSynopsisDirect uint64 `json:"plan_synopsis_direct"`
	PlanFallback       uint64 `json:"plan_fallback"`

	// Cold-tier (bundle) counters.
	Bundles         int    `json:"bundles"`           // open bundle files
	BundledDocs     int    `json:"bundled_docs"`      // catalogued documents served from bundles
	BundleBytes     int64  `json:"bundle_bytes"`      // summed bundle data-file sizes
	BundleDeadBytes int64  `json:"bundle_dead_bytes"` // tombstoned or replaced needle bytes
	BundleRebuilds  uint64 `json:"bundle_rebuilds"`   // needle indexes rebuilt at open

	// Decode-traffic counters (also exported as xc_decode_bytes_total and
	// xc_bundle_read{s,_bytes}_total on /metrics).
	DecodeBytes     uint64 `json:"decode_bytes"`      // archive bytes decoded on cache misses
	BundleReads     uint64 `json:"bundle_reads"`      // documents decoded from bundles
	BundleReadBytes uint64 `json:"bundle_read_bytes"` // archive payload bytes pread from bundles

	// Robustness counters: corrupt artifacts skipped (not catalogued) at
	// open, scrubber activity, and documents quarantined since open.
	OpenSkippedCorrupt uint64 `json:"open_skipped_corrupt,omitempty"`
	Suspects           int    `json:"suspects,omitempty"` // queued for scrub verification
	ScrubPasses        uint64 `json:"scrub_passes,omitempty"`
	ScrubScanned       uint64 `json:"scrub_scanned,omitempty"`
	ScrubBytes         uint64 `json:"scrub_bytes,omitempty"`
	ScrubCorrupt       uint64 `json:"scrub_corrupt,omitempty"`
	ScrubQuarantined   uint64 `json:"scrub_quarantined,omitempty"`
	ScrubRepaired      uint64 `json:"scrub_repaired,omitempty"`
	DegradedDocs       uint64 `json:"degraded_docs,omitempty"` // per-document failures served degraded
}

// Stats returns current cache statistics. The counters are read from
// the same obs.Registry metrics /metrics exports.
func (s *Store) Stats() Stats {
	// Load pruned before considered: pruneSet increments considered
	// first, so this order guarantees considered >= pruned under any
	// interleaving and the scanned subtraction can never wrap.
	pruned := s.m.prunePruned.Value()
	considered := s.m.pruneConsidered.Value()
	st := Stats{
		Queries:            s.m.queries.Value(),
		DocHits:            s.m.docHits.Value(),
		DocMisses:          s.m.docMisses.Value(),
		Evictions:          s.m.evictions.Value(),
		ProgramHits:        s.m.progHits.Value(),
		ProgramMisses:      s.m.progMisses.Value(),
		PruneConsidered:    considered,
		PrunePruned:        pruned,
		PruneScanned:       considered - pruned,
		PlanReordered:      s.m.planReordered.Value(),
		PlanSynopsisDirect: s.m.planDirect.Value(),
		PlanFallback:       s.m.planFallback.Value(),
		BundleRebuilds:     s.m.bundleRebuilds.Value(),
		DecodeBytes:        s.m.decodeBytes.Value(),
		BundleReads:        s.m.bundleReads.Value(),
		BundleReadBytes:    s.m.bundleReadBytes.Value(),
		OpenSkippedCorrupt: s.m.openSkipped.Value(),
		ScrubPasses:        s.m.scrubPasses.Value(),
		ScrubScanned:       s.m.scrubScanned.Value(),
		ScrubBytes:         s.m.scrubBytes.Value(),
		ScrubCorrupt:       s.m.scrubCorrupt.Value(),
		ScrubQuarantined:   s.m.scrubQuarantined.Value(),
		ScrubRepaired:      s.m.scrubRepaired.Value(),
		DegradedDocs:       s.m.degradedDocs.Value(),
	}
	if s.syn != nil {
		st.SynopsisDocs = s.syn.Len()
		st.SynopsisBytes = s.syn.MemBytes()
		st.SynopsisBuilds = s.m.synBuilds.Value()
		st.SynopsisWriteErrors = s.m.synWriteErrs.Value()
	}
	s.mu.Lock()
	st.Docs = len(s.names)
	st.Suspects = len(s.suspects)
	st.Loaded = s.lru.Len()
	st.CacheBytes = s.curBytes
	st.BudgetBytes = s.budget
	st.ProgramsCached = s.progLRU.Len()
	for _, e := range s.entries {
		if e.b != nil {
			st.BundledDocs++
		}
	}
	bundles := make([]*bundle.Bundle, 0, len(s.bundles))
	for _, b := range s.bundles {
		bundles = append(bundles, b)
	}
	s.mu.Unlock()
	// Size the bundles after dropping s.mu: their accessors take the
	// per-bundle lock, and holding both is pointless here.
	st.Bundles = len(bundles)
	for _, b := range bundles {
		st.BundleBytes += b.Size()
		st.BundleDeadBytes += b.DeadBytes()
	}
	return st
}

// DocInfo is one catalog row: file-level facts always, decoded sizes when
// the document is currently cached. Live rows describe documents still in
// the write path's memtable — no file yet, always decoded.
type DocInfo struct {
	Name      string `json:"name"`
	File      string `json:"file,omitempty"`
	Bundle    string `json:"bundle,omitempty"` // bundle file serving this document
	FileBytes int64  `json:"file_bytes,omitempty"`
	Loaded    bool   `json:"loaded"`
	Live      bool   `json:"live,omitempty"`

	// Populated only when Loaded.
	MemBytes         int64  `json:"mem_bytes,omitempty"`
	SkeletonVertices int    `json:"skeleton_vertices,omitempty"`
	SkeletonEdges    int    `json:"skeleton_edges,omitempty"`
	TreeVertices     uint64 `json:"tree_vertices,omitempty"`
	Containers       int    `json:"containers,omitempty"`
	ValueBytes       int64  `json:"value_bytes,omitempty"`
}

// docInfo fills the decoded-size columns from d.
func (info *DocInfo) fill(d *Doc) {
	info.SkeletonVertices = d.archive.Skeleton.NumVertices()
	info.SkeletonEdges = d.archive.Skeleton.NumEdges()
	info.TreeVertices = d.prep.TreeVertices()
	info.Containers = d.archive.Store.NumContainers()
	info.ValueBytes = int64(d.archive.Store.TotalBytes())
}

// Docs returns the catalog in name order: archived documents (minus
// those a live tombstone or live replacement hides) followed by, in the
// same sorted sequence, the live ones.
func (s *Store) Docs() []DocInfo {
	var liveRows []DocInfo
	hidden := make(map[string]bool)
	if l := s.liveView(); l != nil {
		live, deleted := l.LiveNames()
		for _, name := range deleted {
			hidden[name] = true
		}
		for _, name := range live {
			d, deleted := l.LiveDoc(name)
			if d == nil {
				// Tombstoned since LiveNames: hide the stale archive row
				// (queries for it already fail). Compacted since
				// LiveNames: not hidden, so the freshly added archive
				// row shows through instead.
				if deleted {
					hidden[name] = true
				}
				continue
			}
			hidden[name] = true
			info := DocInfo{Name: name, Loaded: true, Live: true, MemBytes: d.MemBytes()}
			info.fill(d)
			liveRows = append(liveRows, info)
		}
	}

	s.mu.Lock()
	out := make([]DocInfo, 0, len(s.names)+len(liveRows))
	for _, name := range s.names {
		if hidden[name] {
			continue
		}
		e := s.entries[name]
		info := DocInfo{
			Name:      e.name,
			File:      e.path,
			FileBytes: e.fileBytes,
			Loaded:    e.doc != nil,
		}
		if e.b != nil {
			info.Bundle = filepath.Base(e.b.Path())
		}
		if d := e.doc; d != nil {
			info.MemBytes = e.charged
			info.fill(d)
		}
		out = append(out, info)
	}
	s.mu.Unlock()

	out = append(out, liveRows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
