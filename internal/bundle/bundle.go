package bundle

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
)

// DefaultMaxBytes is the packing roll-over threshold callers use when
// they have no better number: a new bundle is started once the current
// one exceeds this.
const DefaultMaxBytes = 256 << 20

// FileName returns the data-file name for a bundle id.
func FileName(id uint64) string { return fmt.Sprintf("bundle-%08x%s", id, Ext) }

// ParseID extracts the bundle id from a data-file name (base name, with
// or without directory). ok is false for non-bundle names.
func ParseID(name string) (id uint64, ok bool) {
	base := filepath.Base(name)
	s, ok := strings.CutPrefix(base, "bundle-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, Ext)
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(s, 16, 64)
	return id, err == nil
}

// Bundle is one opened bundle file serving reads by pread. All methods
// are safe for concurrent use: lookups take a read lock over the needle
// map, payload reads go through os.File.ReadAt (safe concurrently), and
// the only mutation — Delete's tombstone append — runs under the write
// lock.
type Bundle struct {
	path string
	id   uint64
	fs   fault.FS

	mu       sync.RWMutex
	f        fault.File
	size     int64
	dead     int64
	refs     map[string]Ref
	rebuilt  bool // index was rebuilt by scanning at open
	readOnly bool // data file opened read-only; Delete refuses
}

// Open opens the bundle at path for serving. The paired needle index is
// loaded when it is intact and size-matched to the data file; otherwise
// — missing, torn, version-skewed, or stale after a crash — the index
// is rebuilt by scanning needle headers (payload CRCs verified), a torn
// tail is truncated away, and the fresh index is persisted. Open falls
// back to read-only service when the data file is not writable.
func Open(path string) (*Bundle, error) {
	return OpenFS(fault.OS, path)
}

// OpenFS is Open over an injectable filesystem.
func OpenFS(fsys fault.FS, path string) (*Bundle, error) {
	fsys = fault.Get(fsys)
	id, ok := ParseID(path)
	if !ok {
		return nil, fmt.Errorf("bundle: %q is not a bundle file name", path)
	}
	readOnly := false
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		f, err = fsys.Open(path)
		if err != nil {
			return nil, fmt.Errorf("bundle: %w", err)
		}
		readOnly = true
	}
	b := &Bundle{path: path, id: id, fs: fsys, f: f, readOnly: readOnly}
	fail := func(err error) (*Bundle, error) {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("bundle: %w", err))
	}
	b.size = fi.Size()
	if err := b.checkFileHeader(); err != nil {
		return fail(err)
	}
	if refs, dead, err := loadIndex(fsys, IndexPath(path), b.size); err == nil {
		b.refs, b.dead = refs, dead
		return b, nil
	}
	if err := b.rebuildIndex(); err != nil {
		return fail(err)
	}
	return b, nil
}

// checkFileHeader validates the data file's magic and version.
func (b *Bundle) checkFileHeader() error {
	hdr := make([]byte, headerOff)
	if _, err := b.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("%w: bundle %s: unreadable file header: %v", ErrCorrupt, b.path, err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		return fmt.Errorf("%w: bundle %s: bad magic", ErrCorrupt, b.path)
	}
	if hdr[len(fileMagic)] != version {
		return fmt.Errorf("%w: bundle %s: unsupported version %d", ErrCorrupt, b.path, hdr[len(fileMagic)])
	}
	return nil
}

// rebuildIndex reconstructs the needle map by scanning headers from the
// start of the data file, truncates any torn tail, and persists the
// fresh index. Called with exclusive access (during Open).
func (b *Bundle) rebuildIndex() error {
	if _, err := b.f.Seek(headerOff, io.SeekStart); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	refs := make(map[string]Ref)
	var dead int64
	good, err := scanNeedles(b.f, func(e scanEntry) {
		if old, ok := refs[e.name]; ok {
			dead += old.size()
			delete(refs, e.name)
		}
		if e.tomb {
			dead += e.ref.size() // the tombstone itself is overhead
		} else {
			refs[e.name] = e.ref
		}
	})
	if err != nil {
		return err
	}
	if good < b.size {
		// Torn tail: a partial needle after the last intact one. Drop it
		// so future tombstone appends extend from a clean boundary.
		if b.readOnly {
			return fmt.Errorf("%w: bundle %s: torn tail at offset %d on read-only media", ErrCorrupt, b.path, good)
		}
		if err := b.f.Truncate(good); err != nil {
			return fmt.Errorf("bundle: truncating torn tail of %s: %w", b.path, err)
		}
		if err := b.f.Sync(); err != nil {
			return fmt.Errorf("bundle: %w", err)
		}
		b.size = good
	}
	b.refs, b.dead, b.rebuilt = refs, dead, true
	if !b.readOnly {
		// Best-effort: serving works from memory either way, and the next
		// open repeats the scan if this write does not land.
		_ = writeIndex(b.fs, IndexPath(b.path), b.refs, b.size, b.dead)
	}
	return nil
}

// ID returns the bundle's numeric id (from its file name).
func (b *Bundle) ID() uint64 { return b.id }

// Path returns the data-file path.
func (b *Bundle) Path() string { return b.path }

// Rebuilt reports whether Open had to reconstruct the index by scanning
// needle headers (missing, corrupt, or stale index file).
func (b *Bundle) Rebuilt() bool { return b.rebuilt }

// Len returns the number of live documents.
func (b *Bundle) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.refs)
}

// Names returns the live document names, sorted.
func (b *Bundle) Names() []string {
	b.mu.RLock()
	names := make([]string, 0, len(b.refs))
	for name := range b.refs {
		names = append(names, name)
	}
	b.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Ref returns the needle locator for a live document.
func (b *Bundle) Ref(name string) (Ref, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r, ok := b.refs[name]
	return r, ok
}

// pread reads [off, off+n) from the data file under the read lock —
// concurrent preads proceed together; only Delete's tail append and
// Close exclude them — and verifies the payload CRC from the needle
// header.
func (b *Bundle) pread(name string, off, n int64, wantCRC uint32, what string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.f == nil {
		return nil, fmt.Errorf("bundle: %s is closed", b.path)
	}
	buf := make([]byte, n)
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("bundle: reading %s of %q from %s: %w", what, name, b.path, err)
	}
	if crc32.ChecksumIEEE(buf) != wantCRC {
		return nil, fmt.Errorf("%w: bundle %s: %s payload of %q fails CRC", ErrCorrupt, b.path, what, name)
	}
	return buf, nil
}

// Archive preads the archive payload of a live document and verifies its
// CRC. The read is coordination-free: sealed payload bytes never move.
func (b *Bundle) Archive(name string) ([]byte, error) {
	r, ok := b.Ref(name)
	if !ok {
		return nil, fmt.Errorf("bundle: %s: no document %q", b.path, name)
	}
	return b.pread(name, r.PayloadOff, r.ArchiveLen, r.archiveCRC, "archive")
}

// Sidecar preads the synopsis-sidecar payload of a live document,
// verifying its CRC. ok is false when the document exists but was packed
// without a sidecar.
func (b *Bundle) Sidecar(name string) (data []byte, ok bool, err error) {
	r, found := b.Ref(name)
	if !found {
		return nil, false, fmt.Errorf("bundle: %s: no document %q", b.path, name)
	}
	if r.SidecarLen == 0 {
		return nil, false, nil
	}
	buf, err := b.pread(name, r.PayloadOff+r.ArchiveLen, r.SidecarLen, r.sidecarCRC, "sidecar")
	if err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// Delete appends a tombstone needle for name, fsyncs the data file and
// rewrites the index. The document's payload bytes become dead weight
// the auditor reclaims once the bundle's dead ratio crosses its
// threshold. Deleting a name the bundle does not hold is a no-op.
func (b *Bundle) Delete(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	old, ok := b.refs[name]
	if !ok {
		return nil
	}
	if b.f == nil {
		return fmt.Errorf("bundle: %s is closed", b.path)
	}
	if b.readOnly {
		return fmt.Errorf("bundle: %s is read-only; cannot delete %q", b.path, name)
	}
	frame, _ := appendNeedle(nil, name, true, nil, nil)
	if _, err := b.f.WriteAt(frame, b.size); err != nil {
		return fmt.Errorf("bundle: appending tombstone for %q to %s: %w", name, b.path, err)
	}
	if err := b.f.Sync(); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	b.size += int64(len(frame))
	b.dead += old.size() + int64(len(frame))
	delete(b.refs, name)
	// The tombstone is durable; a failed index rewrite only costs the
	// next open a rebuild scan (the size pairing check rejects the stale
	// index), so it is surfaced but nothing is rolled back.
	if err := writeIndex(b.fs, IndexPath(b.path), b.refs, b.size, b.dead); err != nil {
		return fmt.Errorf("bundle: rewriting index of %s: %w", b.path, err)
	}
	return nil
}

// VerifyIndex reports whether the paired index file currently loads
// clean and matches the data file — the scrubber's freshness probe.
func (b *Bundle) VerifyIndex() error {
	b.mu.RLock()
	size := b.size
	b.mu.RUnlock()
	_, _, err := loadIndex(b.fs, IndexPath(b.path), size)
	return err
}

// RewriteIndex persists a fresh index from the in-memory needle map —
// the scrubber's repair for a corrupt or stale index file.
func (b *Bundle) RewriteIndex() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return writeIndex(b.fs, IndexPath(b.path), b.refs, b.size, b.dead)
}

// Size returns the data file's size in bytes.
func (b *Bundle) Size() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.size
}

// DeadBytes returns the bytes held by replaced or tombstoned needles
// (and the tombstones themselves).
func (b *Bundle) DeadBytes() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.dead
}

// DeadRatio returns dead bytes as a fraction of the data file.
func (b *Bundle) DeadRatio() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.size <= headerOff {
		return 0
	}
	return float64(b.dead) / float64(b.size)
}

// CopyLiveTo appends every live needle of b to w — the auditor's rewrite
// pass. Payloads are pread and CRC-verified on the way through.
func (b *Bundle) CopyLiveTo(w *Writer) error {
	for _, name := range b.Names() {
		archive, err := b.Archive(name)
		if err != nil {
			return err
		}
		sidecar, _, err := b.Sidecar(name)
		if err != nil {
			return err
		}
		if err := w.Add(name, archive, sidecar); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the data-file handle. In-flight reads racing Close are
// the caller's responsibility (the store drops the bundle from its
// catalog first).
func (b *Bundle) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// Remove closes the bundle and unlinks its data and index files — the
// auditor's final step after a rewrite, or the removal of an emptied
// bundle.
func (b *Bundle) Remove() error {
	if err := b.Close(); err != nil {
		return err
	}
	if err := b.fs.Remove(b.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := b.fs.Remove(IndexPath(b.path)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Writer builds a new bundle file. Typical use: Create, Add every
// document, Seal — which fsyncs the data file, persists the index and
// fsyncs the directory. A Writer is not safe for concurrent use.
type Writer struct {
	path string
	fs   fault.FS
	f    fault.File
	off  int64
	refs map[string]Ref
	buf  []byte
}

// Create starts a new bundle data file at path (which must not exist —
// bundles are never appended to by a Writer once sealed).
func Create(path string) (*Writer, error) {
	return CreateFS(fault.OS, path)
}

// CreateFS is Create over an injectable filesystem.
func CreateFS(fsys fault.FS, path string) (*Writer, error) {
	fsys = fault.Get(fsys)
	if _, ok := ParseID(path); !ok {
		return nil, fmt.Errorf("bundle: %q is not a bundle file name", path)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	hdr := append([]byte(fileMagic), version)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return &Writer{path: path, fs: fsys, f: f, off: headerOff, refs: make(map[string]Ref)}, nil
}

// Add appends one document's archive (and optional sidecar) as a needle.
// Duplicate names within one bundle are rejected — the packer dedupes at
// the catalog level.
func (w *Writer) Add(name string, archive, sidecar []byte) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("bundle: invalid needle name %q", name)
	}
	if _, dup := w.refs[name]; dup {
		return fmt.Errorf("bundle: duplicate needle %q", name)
	}
	var payloadRel int64
	w.buf, payloadRel = appendNeedle(w.buf[:0], name, false, archive, sidecar)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("bundle: appending %q: %w", name, err)
	}
	w.refs[name] = Ref{
		NeedleOff:  w.off,
		PayloadOff: w.off + payloadRel,
		ArchiveLen: int64(len(archive)),
		SidecarLen: int64(len(sidecar)),
		archiveCRC: crc32.ChecksumIEEE(archive),
		sidecarCRC: crc32.ChecksumIEEE(sidecar),
	}
	w.off += int64(len(w.buf))
	return nil
}

// Len returns how many documents have been added.
func (w *Writer) Len() int { return len(w.refs) }

// Path returns the data-file path being written.
func (w *Writer) Path() string { return w.path }

// Size returns the data file's current size — the roll-over signal for
// packers targeting a maximum bundle size.
func (w *Writer) Size() int64 { return w.off }

// Seal makes the bundle durable: fsync the data file, close it, persist
// the needle index, fsync the directory. After Seal the bundle is
// immutable except for tombstone appends through an opened Bundle.
func (w *Writer) Seal() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("bundle: sealing %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("bundle: sealing %s: %w", w.path, err)
	}
	// The index lands beside the data file, so the directory fsync that
	// publishes it also makes the data file's entry durable.
	if err := writeIndex(w.fs, IndexPath(w.path), w.refs, w.off, 0); err != nil {
		return fmt.Errorf("bundle: writing index of %s: %w", w.path, err)
	}
	return nil
}

// Abort discards an unsealed bundle (best-effort cleanup after a failed
// pack).
func (w *Writer) Abort() {
	w.f.Close()
	w.fs.Remove(w.path)
}
