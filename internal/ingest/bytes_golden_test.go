package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walGolden is a two-record WAL segment (an add, then its delete)
// written by the segment writer before the record framing moved to
// internal/frame; it pins the on-disk bytes of the format.
const walGolden = "testdata/wal-two-records.seg"

func goldenRecords() []Record {
	return []Record{
		{Op: OpAdd, Name: "dblp-1", Data: []byte(`<dblp><article><author>Codd</author></article></dblp>`)},
		{Op: OpDelete, Name: "dblp-1", Data: []byte{}},
	}
}

// TestWALBytesGolden writes the golden records through the log and
// asserts the segment is byte-equal to the pinned file, then replays
// the pinned file and asserts it yields the same records.
func TestWALBytesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(walGolden))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	l, err := OpenLog(dir, LogOptions{Sync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenRecords() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL segment bytes differ from %s:\n got %x\nwant %x", walGolden, got, want)
	}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, segName(1)), want, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := replayAll(t, old, LogOptions{})
	defer l2.Close()
	if !reflect.DeepEqual(recs, goldenRecords()) {
		t.Fatalf("replaying %s: got %+v, want %+v", walGolden, recs, goldenRecords())
	}
}
