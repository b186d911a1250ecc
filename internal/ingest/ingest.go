package ingest

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// DefaultMemTableBytes is the seal threshold when Options leaves it zero.
const DefaultMemTableBytes = 64 << 20

// Compaction write steps (archive temp files, sidecars, packing) retry
// transient failures before surfacing them: these defaults give a step
// three attempts over roughly 75ms.
const (
	DefaultCompactRetries      = 2
	DefaultCompactRetryBackoff = 25 * time.Millisecond
)

// ErrClosed is returned by writes against a closed Ingester. It wraps
// store.ErrUnavailable so the HTTP layer can answer 503 (retry later)
// rather than a client-fault 4xx.
var ErrClosed = fmt.Errorf("ingest: ingester is closed: %w", store.ErrUnavailable)

// Options configures an Ingester.
type Options struct {
	// WALDir holds the write-ahead log segments. Required.
	WALDir string
	// Store is the serving catalog fresh documents join (as the store's
	// live view) and compacted archives land in (under Store.Dir()).
	// Required.
	Store *store.Store
	// Sync fsyncs the WAL on every write. Durable but slower; off, a
	// crash can lose writes the OS had not flushed yet.
	Sync bool
	// MemTableBytes seals the active generation for compaction once its
	// estimated size exceeds this. <= 0 selects DefaultMemTableBytes.
	MemTableBytes int64
	// SegmentBytes is the WAL segment rotation threshold. <= 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// CompactInterval also seals and compacts on a timer, bounding how
	// long a document stays WAL-only. 0 disables the timer: compaction
	// then runs only on seal, Flush and Close.
	CompactInterval time.Duration

	// PackMinDocs enables the cold-tier packing stage: after each drain,
	// loose archives are migrated into bundles (store.PackLoose) once at
	// least this many qualify, and over-dead bundles are reclaimed
	// (store.AuditBundles). <= 0 disables packing entirely.
	PackMinDocs int
	// PackMaxDocBytes excludes loose archives larger than this from
	// packing — bundling pays off for small documents; large ones serve
	// fine as loose files. <= 0 packs regardless of size.
	PackMaxDocBytes int64
	// BundleMaxBytes is the bundle roll-over size. <= 0 selects
	// bundle.DefaultMaxBytes.
	BundleMaxBytes int64
	// BundleGCRatio is the dead-byte fraction above which the audit
	// rewrites a bundle. <= 0 selects store.DefaultBundleGCRatio.
	BundleGCRatio float64

	// FS routes the write path's file I/O — WAL segments, archive temp
	// files, sidecars, directory syncs. Nil selects Store.FS(), so a
	// fault injector configured on the store covers ingest too.
	FS fault.FS
	// CompactRetries is how many extra attempts a failed compaction
	// write step gets before the failure is surfaced (the step is
	// re-run from scratch; all retried steps are idempotent). 0 selects
	// DefaultCompactRetries; negative disables retrying.
	CompactRetries int
	// CompactRetryBackoff is the delay before the first retry, doubling
	// per attempt up to 10x. <= 0 selects DefaultCompactRetryBackoff.
	CompactRetryBackoff time.Duration

	// Published, when non-nil, is called after the compactor makes one
	// document durable (archive + sidecar catalogued; tomb false) or
	// erases one (tomb true). The cluster replicator hooks it to stream
	// fresh archives to replica peers. Called from the compactor
	// goroutine with no Ingester locks held; implementations must not
	// block (enqueue and return).
	Published func(name string, tomb bool)
}

// Ingester is the write subsystem: WAL for durability, memtable for
// immediate visibility, background compactor for permanence. Add, Delete,
// Flush and Stats are safe for concurrent use, and none of them ever
// blocks the store's read path: queries reach the memtable through the
// store.Live view, whose lookups touch the memtable mutex only for the
// duration of a map read — WAL I/O (fsyncs, rotation) happens under a
// separate writer lock that readers never take.
type Ingester struct {
	opts Options

	// Lock order: walMu before mu, never the reverse. walMu serialises
	// the writers (WAL appends, rotation, close) and guards closed; it
	// is the lock held across disk I/O. mu guards the memtable and
	// compactErr and is only ever held for map and field operations.
	// Activity counters live in m (sharded atomics on the store's
	// metrics registry) and need no lock at all.
	walMu  sync.Mutex
	wal    *Log
	closed bool

	mu         sync.Mutex
	table      *memtable
	compactErr error // last background-compaction failure

	m *ingestMetrics

	sealCh    chan struct{}
	stopCh    chan struct{}
	done      sync.WaitGroup
	compactMu sync.Mutex // serialises compaction drains
}

// Open opens (creating if needed) the WAL under opts.WALDir, replays it
// into a fresh memtable — crash recovery: every record that was durable
// is queryable again before Open returns — attaches the memtable to the
// store as its live view, and starts the background compactor.
func Open(opts Options) (*Ingester, error) {
	if opts.Store == nil {
		return nil, errors.New("ingest: Options.Store is required")
	}
	if opts.WALDir == "" {
		return nil, errors.New("ingest: Options.WALDir is required")
	}
	if opts.MemTableBytes <= 0 {
		opts.MemTableBytes = DefaultMemTableBytes
	}
	if opts.FS == nil {
		opts.FS = opts.Store.FS()
	}
	switch {
	case opts.CompactRetries == 0:
		opts.CompactRetries = DefaultCompactRetries
	case opts.CompactRetries < 0:
		opts.CompactRetries = 0
	}
	if opts.CompactRetryBackoff <= 0 {
		opts.CompactRetryBackoff = DefaultCompactRetryBackoff
	}
	ing := &Ingester{
		opts:   opts,
		table:  newMemtable(),
		m:      newIngestMetrics(opts.Store.Metrics()),
		sealCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	wal, err := OpenLog(opts.WALDir, LogOptions{Sync: opts.Sync, SegmentBytes: opts.SegmentBytes, FS: opts.FS}, func(rec Record) error {
		ing.m.replayed.Inc()
		return ing.apply(rec)
	})
	if err != nil {
		return nil, err
	}
	ing.wal = wal
	ing.registerGauges()
	opts.Store.SetLive(ing)
	ing.done.Add(1)
	go ing.compactor()
	return ing, nil
}

// apply replays one WAL record into the memtable (no further logging).
func (ing *Ingester) apply(rec Record) error {
	// Replay re-validates names even though Add/Delete validated them
	// before logging: a WAL is just a file, and a record whose frame
	// happens to checksum must still not carry a traversal name into the
	// memtable and on to compaction's filepath.Join.
	if err := validateName(rec.Name); err != nil {
		return fmt.Errorf("ingest: replaying: %w", err)
	}
	switch rec.Op {
	case OpAdd:
		d, err := ing.buildDoc(rec.Name, rec.Data)
		if err != nil {
			return fmt.Errorf("ingest: replaying %q: %w", rec.Name, err)
		}
		ing.table.put(rec.Name, d)
	case OpDelete:
		ing.table.put(rec.Name, &memDoc{tomb: true})
	default:
		return fmt.Errorf("ingest: replaying %q: unknown op %d", rec.Name, rec.Op)
	}
	return nil
}

// buildDoc runs the incremental skeleton build for one document: split
// the XML into an archive (compressed skeleton + value containers), then
// distil the queryable instance from it — the same construction the
// store performs when decoding an archive file, so a document served
// from the memtable is indistinguishable from one served from disk.
// When the store's synopsis index is on, the document's synopsis is
// built here too, from the archive skeleton already in hand: the write
// is prunable the moment it is queryable, and the compactor later
// persists the same synopsis as the archive's sidecar.
func (ing *Ingester) buildDoc(name string, xml []byte) (*memDoc, error) {
	a, err := container.Split(xml)
	if err != nil {
		return nil, err
	}
	doc, err := store.NewDoc(name, a)
	if err != nil {
		return nil, err
	}
	d := &memDoc{doc: doc, archive: a, bytes: doc.MemBytes()}
	if idx := ing.opts.Store.Synopses(); idx != nil {
		d.syn = synopsis.Build(a.Skeleton, idx.Dict(), synopsis.Options{})
		ing.m.synBuilds.Inc()
	}
	return d, nil
}

// validateName is store.ValidateDocName with this package's error
// prefix: names become archive file stems (and bundle needle names), so
// every write surface — Add, Delete, WAL replay, compaction — funnels
// through the store's one strict check.
func validateName(name string) error {
	if err := store.ValidateDocName(name); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return nil
}

// Add ingests one XML document under name, replacing any previous
// document with that name (live or archived). The document is parsed and
// compressed first — invalid XML is rejected with nothing written — then
// logged to the WAL, then published to the memtable; it is queryable when
// Add returns and durable per the WAL's sync policy.
func (ing *Ingester) Add(name string, xml []byte) error {
	if err := validateName(name); err != nil {
		return err
	}
	d, err := ing.buildDoc(name, xml)
	if err != nil {
		return fmt.Errorf("ingest: %q: %w: %v", name, store.ErrBadDocument, err)
	}

	ing.walMu.Lock()
	defer ing.walMu.Unlock()
	if ing.closed {
		return ErrClosed
	}
	t0 := ing.m.now()
	if err := ing.wal.Append(Record{Op: OpAdd, Name: name, Data: xml}); err != nil {
		return err
	}
	ing.m.walAppend.ObserveSince(t0)
	ing.mu.Lock()
	ing.table.put(name, d)
	needSeal := ing.table.active.bytes >= ing.opts.MemTableBytes
	ing.mu.Unlock()
	ing.m.ingested.Inc()
	if needSeal {
		// The write itself is already durable and visible; a rotation
		// failure here is a background-compaction problem (surfaced by
		// Stats and the next Flush), not a failure of this write.
		if err := ing.sealWALLocked(); err != nil {
			ing.setCompactErr(err)
		}
	}
	return nil
}

// Delete tombstones name: the document disappears from queries
// immediately, and compaction removes its archive file. Deleting an
// unknown name is an error.
func (ing *Ingester) Delete(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	ing.walMu.Lock()
	defer ing.walMu.Unlock()
	if ing.closed {
		return ErrClosed
	}
	// Checked under walMu: no writer can add or remove the name between
	// this check and the tombstone append. (Lock order walMu → store
	// locks; the store never takes walMu.)
	if !ing.opts.Store.Has(name) {
		return fmt.Errorf("ingest: %w: no document %q", store.ErrNotFound, name)
	}
	t0 := ing.m.now()
	if err := ing.wal.Append(Record{Op: OpDelete, Name: name}); err != nil {
		return err
	}
	ing.m.walAppend.ObserveSince(t0)
	ing.mu.Lock()
	ing.table.put(name, &memDoc{tomb: true})
	needSeal := ing.table.active.bytes >= ing.opts.MemTableBytes
	ing.mu.Unlock()
	ing.m.deleted.Inc()
	if needSeal {
		if err := ing.sealWALLocked(); err != nil {
			ing.setCompactErr(err) // the tombstone itself is durable and visible
		}
	}
	return nil
}

// sealWALLocked rotates the WAL and moves the active generation to the
// sealed FIFO, then pokes the compactor. Caller holds ing.walMu (so no
// writer can interleave between the empty check, the rotation and the
// seal); ing.mu is taken only around the memtable touches.
func (ing *Ingester) sealWALLocked() error {
	ing.mu.Lock()
	empty := len(ing.table.active.docs) == 0
	ing.mu.Unlock()
	if empty {
		return nil
	}
	boundary, err := ing.wal.Rotate()
	if err != nil {
		return err
	}
	ing.mu.Lock()
	ing.table.seal(boundary)
	ing.mu.Unlock()
	select {
	case ing.sealCh <- struct{}{}:
	default:
	}
	return nil
}

// compactor is the background drain loop.
func (ing *Ingester) compactor() {
	defer ing.done.Done()
	var tick <-chan time.Time
	if ing.opts.CompactInterval > 0 {
		t := time.NewTicker(ing.opts.CompactInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ing.stopCh:
			return
		case <-ing.sealCh:
		case <-tick:
			ing.walMu.Lock()
			var err error
			if !ing.closed {
				err = ing.sealWALLocked()
			}
			ing.walMu.Unlock()
			if err != nil {
				ing.setCompactErr(err)
				continue
			}
		}
		// A successful drain clears any earlier transient failure, so
		// /stats does not report a long-resolved fault and the next
		// Flush does not fail retroactively.
		err := ing.drain()
		if err == nil {
			err = ing.packCold()
		}
		ing.setCompactErr(err)
	}
}

// packCold runs the cold-tier packing stage after a drain: loose
// archives over the PackMinDocs threshold are bundled, then over-dead
// bundles are rewritten or removed. A no-op when packing is disabled.
func (ing *Ingester) packCold() error {
	if ing.opts.PackMinDocs <= 0 {
		return nil
	}
	// Both stages are retried whole: each re-run re-scans the catalog,
	// so work a failed attempt did finish is not repeated, and work it
	// tore down mid-flight is picked up again.
	var pst store.PackStats
	err := ing.retry(func() error {
		var perr error
		pst, perr = ing.opts.Store.PackLoose(store.PackOptions{
			MaxBundleBytes: ing.opts.BundleMaxBytes,
			MaxDocBytes:    ing.opts.PackMaxDocBytes,
			MinDocs:        ing.opts.PackMinDocs,
		})
		return perr
	})
	if err != nil {
		return fmt.Errorf("ingest: packing loose archives: %w", err)
	}
	ing.m.packedDocs.Add(uint64(pst.Packed))
	err = ing.retry(func() error {
		_, aerr := ing.opts.Store.AuditBundles(ing.opts.BundleGCRatio)
		return aerr
	})
	if err != nil {
		return fmt.Errorf("ingest: auditing bundles: %w", err)
	}
	return nil
}

// retry runs one compaction write step under the configured retry
// policy, counting re-attempts and exhausted budgets. Only idempotent
// steps route through here — notably not Erase, whose catalog removal
// would make a re-run a silent no-op over an unfinished unlink.
func (ing *Ingester) retry(op func() error) error {
	retries, err := fault.Retry(1+ing.opts.CompactRetries,
		ing.opts.CompactRetryBackoff, 10*ing.opts.CompactRetryBackoff, op)
	if retries > 0 {
		ing.m.compactionRetries.Add(uint64(retries))
	}
	if err != nil {
		ing.m.compactionFailures.Inc()
	}
	return err
}

// setCompactErr records a background failure (or clears one, on nil) for
// Stats and the next Flush to surface.
func (ing *Ingester) setCompactErr(err error) {
	ing.mu.Lock()
	ing.compactErr = err
	ing.mu.Unlock()
}

// drain compacts every sealed generation, oldest first.
func (ing *Ingester) drain() error {
	ing.compactMu.Lock()
	defer ing.compactMu.Unlock()
	for {
		ing.mu.Lock()
		if len(ing.table.sealed) == 0 {
			ing.mu.Unlock()
			return nil
		}
		g := ing.table.sealed[0]
		ing.mu.Unlock()

		t0 := ing.m.now()
		if err := ing.compactGeneration(g); err != nil {
			return err
		}
		ing.m.compaction.ObserveSince(t0)

		ing.mu.Lock()
		// The generation's documents are durable as archives and already
		// reachable through the store catalog; dropping it re-routes
		// reads from the memtable to those archives (identical content),
		// and the WAL prefix that fed it can go.
		ing.table.sealed = ing.table.sealed[1:]
		ing.mu.Unlock()
		ing.m.compactions.Inc()
		ing.m.compactedDocs.Add(uint64(len(g.docs)))
		ing.walMu.Lock()
		err := ing.wal.TruncateThrough(g.walSealed)
		ing.walMu.Unlock()
		if err != nil {
			return err
		}
	}
}

// compactGeneration makes one sealed generation durable: each document is
// encoded and published (frame.Publish) as name.xca in the store
// directory, then swapped into the catalog; tombstones remove
// the archive and catalog entry. Runs without the Ingester mutex — writes
// and queries proceed concurrently.
func (ing *Ingester) compactGeneration(g *generation) error {
	names := make([]string, 0, len(g.docs))
	for name := range g.docs {
		names = append(names, name)
	}
	sort.Strings(names)
	dir := ing.opts.Store.Dir()
	idx := ing.opts.Store.Synopses()
	for _, name := range names {
		d := g.docs[name]
		// Names were validated at ingest and at replay; check once more
		// at the only place they are joined into a path, so no future
		// call path can skip the validation and write outside the store.
		if err := validateName(name); err != nil {
			return fmt.Errorf("ingest: compacting: %w", err)
		}
		path := filepath.Join(dir, name+store.Ext)
		if d.tomb {
			// Erase handles both tiers: it unlinks a loose archive and
			// sidecar, or appends a tombstone needle when the document
			// was packed into a bundle.
			if err := ing.opts.Store.Erase(name); err != nil {
				return fmt.Errorf("ingest: compacting tombstone %q: %w", name, err)
			}
			if ing.opts.Published != nil {
				ing.opts.Published(name, true)
			}
			continue
		}
		err := ing.retry(func() error {
			return frame.Publish(ing.opts.FS, path, func(w io.Writer) error {
				return codec.EncodeArchive(w, d.archive)
			})
		})
		if err != nil {
			return fmt.Errorf("ingest: compacting %q: %w", name, err)
		}
		// Persist the sidecar (bound to the archive's exact size) before
		// publishing: a store reopened after any crash point either
		// finds a correctly paired sidecar or rejects the stale one and
		// rebuilds from the archive at open.
		if idx != nil && d.syn != nil {
			fi, err := ing.opts.FS.Stat(path)
			if err != nil {
				return fmt.Errorf("ingest: sizing archive of %q: %w", name, err)
			}
			err = ing.retry(func() error {
				return synopsis.WriteSidecar(ing.opts.FS, synopsis.SidecarPath(path), d.syn, idx.Dict(), fi.Size())
			})
			if err != nil {
				return fmt.Errorf("ingest: writing sidecar of %q: %w", name, err)
			}
		}
		// Hand the already-decoded document over as the cache seed: the
		// first post-compaction query then serves warm instead of
		// re-reading and re-decoding the archive it just wrote.
		if err := ing.opts.Store.AddArchive(name, path, d.doc, d.syn); err != nil {
			return fmt.Errorf("ingest: cataloguing %q: %w", name, err)
		}
		if ing.opts.Published != nil {
			ing.opts.Published(name, false)
		}
	}
	// Every publish above fsynced the directory; this one makes the
	// tombstones' unlinks durable too.
	return frame.SyncDir(ing.opts.FS, dir)
}

// Flush synchronously seals the active generation and compacts every
// sealed one: when it returns, all ingested documents live in .xca
// archives, the memtable is empty and the WAL has been retired. A
// pending background-compaction failure is surfaced here.
func (ing *Ingester) Flush() error {
	ing.walMu.Lock()
	if ing.closed {
		ing.walMu.Unlock()
		return ErrClosed
	}
	err := ing.sealWALLocked()
	ing.walMu.Unlock()
	if err != nil {
		return err
	}
	if err := ing.drain(); err != nil {
		return err
	}
	if err := ing.packCold(); err != nil {
		return err
	}
	ing.mu.Lock()
	err = ing.compactErr
	ing.compactErr = nil
	ing.mu.Unlock()
	return err
}

// Close flushes, stops the compactor and closes the WAL. The Ingester
// rejects writes afterwards; the store keeps serving its archives.
func (ing *Ingester) Close() error {
	flushErr := ing.Flush()
	ing.stop()
	ing.walMu.Lock()
	closeErr := ing.wal.Close()
	ing.closed = true
	ing.walMu.Unlock()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Kill simulates a crash: the compactor stops and the WAL file
// descriptors are dropped without flushing or compacting, leaving the
// on-disk state exactly as a power cut would. Reopening with Open
// replays the WAL. For tests and recovery experiments.
func (ing *Ingester) Kill() {
	ing.stop()
	ing.walMu.Lock()
	ing.wal.closeNoSync()
	ing.closed = true
	ing.walMu.Unlock()
}

func (ing *Ingester) stop() {
	select {
	case <-ing.stopCh:
	default:
		close(ing.stopCh)
	}
	ing.done.Wait()
}

// LiveDoc implements store.Live: the newest memtable view of name.
func (ing *Ingester) LiveDoc(name string) (doc *store.Doc, deleted bool) {
	ing.mu.Lock()
	d, ok := ing.table.get(name)
	ing.mu.Unlock()
	if !ok {
		return nil, false
	}
	if d.tomb {
		return nil, true
	}
	return d.doc, false
}

// LiveNames implements store.Live: current memtable names, sorted.
func (ing *Ingester) LiveNames() (live, deleted []string) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.table.names()
}

// LiveSynopsis implements store.Live: the synopsis of the newest
// memtable version of name (nil for tombstones and for documents
// ingested with the index off — both are then never pruned by a stale
// archive synopsis, because live is still reported true).
func (ing *Ingester) LiveSynopsis(name string) (syn *synopsis.Synopsis, live bool) {
	ing.mu.Lock()
	d, ok := ing.table.get(name)
	ing.mu.Unlock()
	if !ok {
		return nil, false
	}
	return d.syn, true
}

// Ready implements store.ReadyReporter: the write path is ready when it
// is open, has no compaction backlog (sealed generations waiting to
// drain) and no pending background-compaction failure. Live memtable
// documents do not block readiness — they are fully servable.
func (ing *Ingester) Ready() error {
	ing.walMu.Lock()
	closed := ing.closed
	ing.walMu.Unlock()
	if closed {
		return errors.New("ingest: closed")
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.compactErr != nil {
		return fmt.Errorf("ingest: pending compaction failure: %v", ing.compactErr)
	}
	if n := len(ing.table.sealed); n > 0 {
		return fmt.Errorf("ingest: %d sealed generation(s) awaiting compaction", n)
	}
	return nil
}

// Stats returns a point-in-time snapshot of the write path.
func (ing *Ingester) Stats() store.IngestStats {
	ing.walMu.Lock()
	walSegs, walBytes, walSync := ing.wal.Segments(), ing.wal.SizeBytes(), ing.opts.Sync
	walWarnings := ing.wal.OpenWarnings()
	ing.walMu.Unlock()
	ing.mu.Lock()
	defer ing.mu.Unlock()
	docs, bytes := ing.table.size()
	// Counters are reported relative to their value at Open: the
	// registry's series are monotone across reopens on the same store,
	// but IngestStats has always described this instance only.
	st := store.IngestStats{
		Ingested:           ing.m.ingested.Value() - ing.m.base.ingested,
		Deleted:            ing.m.deleted.Value() - ing.m.base.deleted,
		Replayed:           int(ing.m.replayed.Value() - ing.m.base.replayed),
		LiveDocs:           docs,
		LiveBytes:          bytes,
		SealedGens:         len(ing.table.sealed),
		Compactions:        ing.m.compactions.Value() - ing.m.base.compactions,
		CompactedDocs:      ing.m.compactedDocs.Value() - ing.m.base.compactedDocs,
		CompactionRetries:  ing.m.compactionRetries.Value() - ing.m.base.compactionRetries,
		CompactionFailures: ing.m.compactionFailures.Value() - ing.m.base.compactionFailures,
		PackedDocs:         ing.m.packedDocs.Value() - ing.m.base.packedDocs,
		SynopsisBuilds:     ing.m.synBuilds.Value() - ing.m.base.synBuilds,
		WALSegments:        walSegs,
		WALBytes:           walBytes,
		WALSync:            walSync,
		WALOpenWarnings:    walWarnings,
	}
	if ing.compactErr != nil {
		st.LastError = ing.compactErr.Error()
	}
	return st
}
