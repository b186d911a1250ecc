package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Op: OpAdd, Name: "a", Data: []byte("<a/>")},
		{Op: OpAdd, Name: "doc-2", Data: bytes.Repeat([]byte("x"), 1000)},
		{Op: OpDelete, Name: "a"},
		{Op: OpAdd, Name: "empty", Data: nil},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for _, rec := range recs {
		buf = appendRecord(buf, rec)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range recs {
		got, err := readRecord(br)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Op != want.Op || got.Name != want.Name || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := readRecord(br); err == nil {
		t.Fatal("want EOF after last record")
	}
}

func TestRecordCRCMismatch(t *testing.T) {
	buf := appendRecord(nil, Record{Op: OpAdd, Name: "x", Data: []byte("payload")})
	buf[len(buf)-1] ^= 0xff // flip a body byte; CRC no longer matches
	if _, err := readRecord(bufio.NewReader(bytes.NewReader(buf))); err != errTorn {
		t.Fatalf("got %v, want errTorn", err)
	}
}

// replayAll reopens the log at dir and returns the replayed records.
func replayAll(t *testing.T, dir string, opts LogOptions) (*Log, []Record) {
	t.Helper()
	var recs []Record
	l, err := OpenLog(dir, opts, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l, recs := replayAll(t, dir, LogOptions{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := replayAll(t, dir, LogOptions{})
	defer l2.Close()
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

// normalize maps nil and empty Data to a comparable form.
func normalize(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		if len(r.Data) == 0 {
			r.Data = nil
		}
		out[i] = r
	}
	return out
}

func TestLogRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every kilobyte record forces a rotation.
	l, _ := replayAll(t, dir, LogOptions{SegmentBytes: 512})
	for i := 0; i < 6; i++ {
		if err := l.Append(Record{Op: OpAdd, Name: "d", Data: bytes.Repeat([]byte("y"), 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >= 3 segments after oversized appends, got %d", l.Segments())
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(boundary); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("want only the fresh segment after truncate, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything before the boundary is gone; replay sees nothing.
	l2, recs := replayAll(t, dir, LogOptions{})
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records after full truncation", len(recs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, LogOptions{})
	want := sampleRecords()
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.closeNoSync()

	// Tear the tail: chop half of the final record off the last segment.
	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, got := replayAll(t, dir, LogOptions{})
	if len(got) != len(want)-1 {
		t.Fatalf("replayed %d records, want %d (torn tail dropped)", len(got), len(want)-1)
	}
	// The log stays usable: new appends land after the truncation point
	// and survive another replay.
	if err := l2.Append(Record{Op: OpAdd, Name: "after", Data: []byte("<z/>")}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, got3 := replayAll(t, dir, LogOptions{})
	defer l3.Close()
	if len(got3) != len(want) || got3[len(got3)-1].Name != "after" {
		t.Fatalf("after torn-tail recovery + append, replay got %+v", got3)
	}
}

// TestTornLengthBoundsAllocation opens a WAL whose only segment is a
// 9-byte tear: a length field declaring a 64 MiB record, its CRC and one
// body byte. Replay must allocate in proportion to the bytes there, not
// the length declared, and truncate the tear.
func TestTornLengthBoundsAllocation(t *testing.T) {
	dir := t.TempDir()
	tail := binary.AppendUvarint(nil, 64<<20)
	tail = append(tail, 0, 0, 0, 0, 'x')
	if len(tail) != 9 {
		t.Fatalf("tail is %d bytes", len(tail))
	}
	seg := filepath.Join(dir, segName(1))
	if err := os.WriteFile(seg, tail, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, got := replayAll(t, dir, LogOptions{})
	runtime.ReadMemStats(&after)
	defer l.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records from a torn tail", len(got))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("OpenLog allocated %d bytes for a 9-byte segment", alloc)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
		t.Fatalf("torn segment not truncated: %v, %v", fi, err)
	}
}

func TestCorruptNonFinalSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, LogOptions{SegmentBytes: 64})
	for i := 0; i < 4; i++ {
		if err := l.Append(Record{Op: OpAdd, Name: "d", Data: bytes.Repeat([]byte("z"), 256)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("need multiple segments, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST segment: history damage, not a torn tail.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(dir, LogOptions{}, nil); err == nil {
		t.Fatal("open must refuse a corrupt non-final segment")
	}
}

// TestUndeletableEmptySegmentKept is the regression test for OpenLog
// silently falling through when unlinking an empty segment fails for a
// non-ENOENT reason: the segment must be kept in the replay set, the
// condition surfaced via OpenWarnings, and the log still usable. The
// unlink failure is injected through the removeFile hook because the
// test runs as root, where permission bits cannot make a file
// undeletable.
func TestUndeletableEmptySegmentKept(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, LogOptions{})
	if err := l.Append(Record{Op: OpAdd, Name: "d", Data: []byte("<a/>")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// An empty segment, as left behind by a crash between segment
	// creation and the first append.
	empty := filepath.Join(dir, segName(99))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	defer func(orig func(string) error) { removeFile = orig }(removeFile)
	removeFile = func(path string) error {
		if path == empty {
			return errors.New("injected: operation not permitted")
		}
		return os.Remove(path)
	}

	l2, recs := replayAll(t, dir, LogOptions{})
	defer l2.Close()
	if len(recs) != 1 || recs[0].Name != "d" {
		t.Fatalf("replayed %v, want the one surviving record", recs)
	}
	warns := l2.OpenWarnings()
	if len(warns) != 1 || !strings.Contains(warns[0], segName(99)) {
		t.Fatalf("OpenWarnings() = %q, want one warning naming %s", warns, segName(99))
	}
	if _, err := os.Stat(empty); err != nil {
		t.Fatalf("undeletable empty segment disappeared: %v", err)
	}
	// The log must still accept writes past the kept segment.
	if err := l2.Append(Record{Op: OpAdd, Name: "after", Data: []byte("<b/>")}); err != nil {
		t.Fatal(err)
	}
}
