// Package ingest is the write path of the system: it accepts XML
// documents at runtime, makes each one durable in a segment-based
// write-ahead log, distils it into an in-memory memtable of compressed
// instances (so queries see it immediately), and runs a background
// compactor that drains sealed memtable generations into real .xca
// archives and swaps them into the serving catalog — the classic
// LSM-style split that keeps the write path from ever blocking the
// coordination-free read path (EMBANKS-style incremental index
// maintenance over the paper's compressed-skeleton storage model).
//
// Durability contract: a successful Add or Delete has been framed and
// written to the WAL (fsynced when Options.Sync is set) before it becomes
// visible to queries. On reopen the log is replayed into the memtable, so
// a crash loses at most what the OS had not yet flushed; a torn final
// record is detected by CRC and truncated away. Compaction only truncates
// WAL segments after the archives that replace them have been fsynced and
// renamed into place.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/frame"
)

// Op is a WAL record type.
type Op byte

const (
	// OpAdd records a document ingested under a name; Data is the raw XML.
	OpAdd Op = 1
	// OpDelete records a tombstone for a name; Data is empty.
	OpDelete Op = 2
)

// Record is one logged write.
type Record struct {
	Op   Op
	Name string
	Data []byte
}

// On-disk framing of one record (frame.AppendRecord):
//
//	record := bodyLen(uvarint) crc32(4B LE, IEEE, over body) body
//	body   := op(1B) nameLen(uvarint) name data
//
// bodyLen covers body only. A short read or CRC mismatch at the tail of
// the last segment is a torn write (truncated away on open); anywhere
// else it is corruption and opening fails.

// maxRecordBytes guards the length field against corrupt input before
// any allocation happens (same spirit as codec.maxLen).
const maxRecordBytes = 1 << 30

// errTorn marks a record that ends mid-frame or fails its CRC: a torn
// tail when it is the last thing in the log, corruption otherwise.
var errTorn = errors.New("ingest: torn or corrupt WAL record")

// appendRecord appends the framed record to buf and returns it.
func appendRecord(buf []byte, rec Record) []byte {
	body := make([]byte, 0, 1+binary.MaxVarintLen64+len(rec.Name)+len(rec.Data))
	body = append(body, byte(rec.Op))
	body = binary.AppendUvarint(body, uint64(len(rec.Name)))
	body = append(body, rec.Name...)
	body = append(body, rec.Data...)
	return frame.AppendRecord(buf, body)
}

// readRecord reads one framed record. io.EOF at a record boundary means a
// clean end; any mid-frame failure returns errTorn.
func readRecord(r *bufio.Reader) (Record, error) {
	body, err := frame.ReadRecord(r, maxRecordBytes)
	if err == io.EOF {
		return Record{}, io.EOF
	}
	if err != nil || len(body) < 1 {
		return Record{}, errTorn
	}
	rec := Record{Op: Op(body[0])}
	body = body[1:]
	nameLen, n := binary.Uvarint(body)
	if n <= 0 || nameLen > uint64(len(body)-n) {
		return Record{}, errTorn
	}
	rec.Name = string(body[n : n+int(nameLen)])
	rec.Data = body[n+int(nameLen):]
	return rec, nil
}

// DefaultSegmentBytes is the rotation threshold when LogOptions leaves it
// zero.
const DefaultSegmentBytes = 64 << 20

// LogOptions configures a Log.
type LogOptions struct {
	// Sync fsyncs after every Append. Off, the OS decides when dirty WAL
	// pages reach disk: much faster, but a crash can lose recent writes.
	Sync bool
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size. <= 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// FS is the filesystem the log runs against (nil: the real one).
	// Tests thread a fault-injecting FS through here.
	FS fault.FS
}

// Log is a segment-based write-ahead log: records are appended to
// numbered segment files (wal-%016x.seg) so compaction can retire whole
// prefixes of the history with unlink instead of rewriting. Log methods
// are not safe for concurrent use; the Ingester serialises access.
type Log struct {
	dir  string
	opts LogOptions
	fs   fault.FS

	f       fault.File // current segment; nil when closed or between rotations
	cur     uint64     // its index
	curSize int64
	reopen  uint64           // segment to (re)open on next Append after a failed rotation
	failed  error            // unrecoverable damage: refuse all further writes
	segs    []uint64         // live segment indices, ascending; last is cur
	sizes   map[uint64]int64 // per-segment byte size, maintained in memory
	buf     []byte           // scratch for framing

	openWarnings []string // non-fatal conditions tolerated at open
}

// OpenWarnings returns the non-fatal conditions OpenLog tolerated and
// worked around (currently: empty segments that could not be unlinked).
// The slice is fixed after open; callers must not mutate it.
func (l *Log) OpenWarnings() []string { return l.openWarnings }

func segName(idx uint64) string { return fmt.Sprintf("wal-%016x.seg", idx) }

// removeFile is os.Remove, indirected so tests can fail specific unlinks
// (root cannot rely on permission bits to make a file undeletable).
var removeFile = os.Remove

// OpenLog opens (creating if needed) the WAL in dir and replays every
// intact record in log order through fn. A torn tail — a record in the
// final segment that ends mid-frame or fails its CRC — is truncated away;
// the same damage anywhere else is corruption and fails the open.
func OpenLog(dir string, opts LogOptions, fn func(Record) error) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	fsys := fault.Get(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: creating WAL dir: %w", err)
	}
	des, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading WAL dir: %w", err)
	}
	var segs []uint64
	var warnings []string
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
		if err != nil {
			continue
		}
		// Record-free segments (a previous process exited without writing)
		// carry nothing to replay; unlink them rather than accumulate one
		// per restart.
		if fi, err := de.Info(); err == nil && fi.Size() == 0 {
			if err := removeFile(filepath.Join(dir, name)); err == nil || os.IsNotExist(err) {
				continue
			} else {
				// The unlink failed for a real reason (immutable file,
				// filesystem fault — not just "already gone"). Keeping
				// the segment is harmless: it holds no records, so it
				// replays to nothing and stays on the segment list for
				// the usual retirement path. But the failure must not be
				// silent — it is the only early sign the WAL directory
				// has gone bad — so it is recorded for Stats to surface.
				warnings = append(warnings, fmt.Sprintf("ingest: keeping empty WAL segment %s: unlink failed: %v", name, err))
			}
		}
		segs = append(segs, idx)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	l := &Log{dir: dir, opts: opts, fs: fsys, segs: segs, sizes: make(map[uint64]int64), openWarnings: warnings}
	for i, idx := range segs {
		last := i == len(segs)-1
		if err := l.replaySegment(idx, last, fn); err != nil {
			return nil, err
		}
		// One stat per segment at open (replay may have truncated a torn
		// tail); SizeBytes is a pure in-memory read afterwards.
		if fi, err := fsys.Stat(filepath.Join(dir, segName(idx))); err == nil {
			l.sizes[idx] = fi.Size()
		}
	}
	// Append into a fresh segment; sealed history stays immutable.
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	return l, nil
}

// replaySegment feeds every intact record of one segment to fn,
// truncating a torn tail when the segment is the last one.
func (l *Log) replaySegment(idx uint64, last bool, fn func(Record) error) error {
	path := filepath.Join(l.dir, segName(idx))
	f, err := l.fs.Open(path)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	var good int64 // offset just past the last intact record
	for {
		rec, err := readRecord(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if !last {
				return fmt.Errorf("ingest: WAL segment %s corrupt at offset %d (not the final segment; refusing to drop history)", path, good)
			}
			// Torn tail: drop the partial record.
			if err := l.fs.Truncate(path, good); err != nil {
				return fmt.Errorf("ingest: truncating torn WAL tail of %s: %w", path, err)
			}
			return nil
		}
		good = cr.n - int64(br.Buffered())
		if fn != nil {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (l *Log) openSegment(idx uint64) error {
	f, size, err := frame.OpenAppend(l.fs, filepath.Join(l.dir, segName(idx)))
	if err != nil {
		return fmt.Errorf("ingest: opening WAL segment: %w", err)
	}
	l.f, l.cur, l.curSize = f, idx, size
	if n := len(l.segs); n == 0 || l.segs[n-1] != idx {
		l.segs = append(l.segs, idx)
	}
	l.sizes[idx] = size
	return nil
}

// Append frames rec, writes it to the current segment and (under
// Sync) fsyncs, rotating first if the segment is over the threshold.
//
// A failed write must not leave torn bytes mid-segment: replay treats a
// broken frame as the end of the log, so garbage in the middle would
// silently hide every later acknowledged record behind it. On a partial
// write Append truncates the segment back to the last record boundary;
// if even that fails the log refuses all further writes rather than risk
// acknowledging records that replay would drop.
func (l *Log) Append(rec Record) error {
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		if l.reopen == 0 {
			return errors.New("ingest: WAL is closed")
		}
		// A previous rotation closed the old segment but could not open
		// the next (transient EMFILE, permissions, ...): retry here so
		// one transient fault does not wedge the write path.
		if err := l.openSegment(l.reopen); err != nil {
			return err
		}
		l.reopen = 0
	}
	if l.curSize >= l.opts.SegmentBytes {
		if _, err := l.Rotate(); err != nil {
			return err
		}
	}
	l.buf = appendRecord(l.buf[:0], rec)
	n, err := l.f.Write(l.buf)
	if err != nil {
		if n > 0 {
			if terr := l.f.Truncate(l.curSize); terr != nil {
				l.failed = fmt.Errorf("ingest: WAL segment torn after failed append (%v) and truncate failed (%v); refusing further writes", err, terr)
				return l.failed
			}
		}
		return fmt.Errorf("ingest: WAL append: %w", err)
	}
	l.curSize += int64(n)
	l.sizes[l.cur] += int64(n)
	if l.opts.Sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("ingest: WAL fsync: %w", err)
		}
	}
	return nil
}

// Rotate seals the current segment (fsyncing it) and starts a new one,
// returning the sealed segment's index: records appended so far live in
// segments <= that index, the compaction boundary TruncateThrough takes.
func (l *Log) Rotate() (sealed uint64, err error) {
	if l.f == nil {
		return 0, errors.New("ingest: WAL is closed")
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("ingest: WAL fsync: %w", err)
	}
	closeErr := l.f.Close()
	l.f = nil // never leave a closed handle looking usable
	if closeErr != nil {
		l.reopen = l.cur // appends may retry into the same segment
		return 0, fmt.Errorf("ingest: WAL close: %w", closeErr)
	}
	sealed = l.cur
	if err := l.openSegment(sealed + 1); err != nil {
		l.reopen = sealed + 1 // the next Append retries the open
		return 0, err
	}
	return sealed, nil
}

// TruncateThrough unlinks every segment with index <= sealed. The caller
// guarantees their records are durable elsewhere (compacted archives).
func (l *Log) TruncateThrough(sealed uint64) error {
	keep := l.segs[:0]
	for _, idx := range l.segs {
		if idx > sealed {
			keep = append(keep, idx)
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, segName(idx))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ingest: retiring WAL segment: %w", err)
		}
		delete(l.sizes, idx)
	}
	l.segs = keep
	return nil
}

// Segments returns how many segment files the log currently holds.
func (l *Log) Segments() int { return len(l.segs) }

// SizeBytes returns the summed size of all live segments — a pure
// in-memory read; no filesystem calls.
func (l *Log) SizeBytes() int64 {
	var n int64
	for _, size := range l.sizes {
		n += size
	}
	return n
}

// Close fsyncs and closes the current segment.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return fmt.Errorf("ingest: WAL fsync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("ingest: WAL close: %w", closeErr)
	}
	return nil
}

// closeNoSync abandons the file descriptor without flushing — the crash
// path Kill uses so tests and recovery experiments exercise real replay.
func (l *Log) closeNoSync() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}
