package synopsis

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// sidecarGolden is one sidecar written by the sidecar writer before its
// CRC trailer and publish step moved to internal/frame; it pins the
// on-disk bytes of the format.
const sidecarGolden = "testdata/golden.xcs"

const (
	goldenSidecarDoc          = `<dblp><article><author>Codd</author><title>R</title></article><book><author>Date</author></book></dblp>`
	goldenSidecarArchiveBytes = 4242
)

// TestSidecarBytesGolden writes the golden document's synopsis and
// asserts the file is byte-equal to the pinned sidecar, then loads the
// pinned sidecar and asserts it decodes to the same synopsis.
func TestSidecarBytesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(sidecarGolden))
	if err != nil {
		t.Fatal(err)
	}
	dict := NewDict()
	s := buildFrom(t, goldenSidecarDoc, dict, Options{})
	path := filepath.Join(t.TempDir(), "golden"+Ext)
	if err := WriteSidecar(fault.OS, path, s, dict, goldenSidecarArchiveBytes); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sidecar bytes differ from %s:\n got %x\nwant %x", sidecarGolden, got, want)
	}

	oldDict := NewDict()
	old, err := LoadSidecar(filepath.FromSlash(sidecarGolden), oldDict, goldenSidecarArchiveBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old.testPaths(oldDict), s.testPaths(dict)) ||
		old.NumLabels() != s.NumLabels() || old.TreeSize() != s.TreeSize() ||
		old.Depth() != s.Depth() || old.Overflow() != s.Overflow() {
		t.Fatalf("golden sidecar decodes to paths %v, want %v", old.testPaths(oldDict), s.testPaths(dict))
	}
}
