package bundle

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The golden pair is a bundle of three needles, one of them later
// tombstoned, and the index rewritten after that tombstone — written by
// the bundle writer before the needle header and the index trailer
// moved to internal/frame. They pin the on-disk bytes of both formats.
const (
	bundleGolden = "testdata/bundle-00000001.xcb"
	indexGolden  = "testdata/bundle-00000001.xbi"
)

var goldenNeedles = []struct {
	name             string
	archive, sidecar []byte
}{
	{"alpha", []byte("archive-alpha-bytes"), []byte("sidecar-alpha")},
	{"beta", bytes.Repeat([]byte{0xAB, 0x01}, 40), nil},
	{"gamma", []byte("g"), []byte("sidecar-gamma-bytes")},
}

// writeGoldenBundle packs the golden needles into dir, tombstones
// "alpha", and returns the data-file path.
func writeGoldenBundle(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, FileName(1))
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range goldenNeedles {
		if err := w.Add(n.name, n.archive, n.sidecar); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	return path
}

// bundleState is what a reader recovers from a bundle: its live refs
// (payload CRCs included), dead bytes and payloads.
func bundleState(t *testing.T, path string) (refs map[string]Ref, dead int64, rebuilt bool, payloads map[string][2][]byte) {
	t.Helper()
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	refs = make(map[string]Ref)
	payloads = make(map[string][2][]byte)
	for _, name := range b.Names() {
		r, _ := b.Ref(name)
		refs[name] = r
		archive, err := b.Archive(name)
		if err != nil {
			t.Fatal(err)
		}
		sidecar, _, err := b.Sidecar(name)
		if err != nil {
			t.Fatal(err)
		}
		payloads[name] = [2][]byte{archive, sidecar}
	}
	return refs, b.DeadBytes(), b.Rebuilt(), payloads
}

// TestBundleBytesGolden writes the golden needles and tombstone and
// asserts the data file and index are byte-equal to the pinned pair,
// then opens the pinned pair — through its index and, with the index
// removed, through a needle-header scan — and asserts both yield the
// refs, dead bytes and payloads the fresh bundle does, and that the
// scan rewrites the golden index byte for byte.
func TestBundleBytesGolden(t *testing.T) {
	wantData, err := os.ReadFile(filepath.FromSlash(bundleGolden))
	if err != nil {
		t.Fatal(err)
	}
	wantIndex, err := os.ReadFile(filepath.FromSlash(indexGolden))
	if err != nil {
		t.Fatal(err)
	}

	path := writeGoldenBundle(t, t.TempDir())
	for _, c := range []struct {
		path string
		want []byte
	}{{path, wantData}, {IndexPath(path), wantIndex}} {
		got, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s differs from the golden:\n got %x\nwant %x", filepath.Base(c.path), got, c.want)
		}
	}
	wantRefs, wantDead, _, wantPayloads := bundleState(t, path)
	if len(wantRefs) != 2 {
		t.Fatalf("fresh bundle holds %d live needles, want 2", len(wantRefs))
	}

	old := filepath.Join(t.TempDir(), FileName(1))
	if err := os.WriteFile(old, wantData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(IndexPath(old), wantIndex, 0o644); err != nil {
		t.Fatal(err)
	}
	refs, dead, rebuilt, payloads := bundleState(t, old)
	if rebuilt {
		t.Fatal("the golden index was rejected and rebuilt")
	}
	if !reflect.DeepEqual(refs, wantRefs) || dead != wantDead || !reflect.DeepEqual(payloads, wantPayloads) {
		t.Fatalf("golden via index: refs %+v dead %d, want %+v dead %d", refs, dead, wantRefs, wantDead)
	}

	if err := os.Remove(IndexPath(old)); err != nil {
		t.Fatal(err)
	}
	refs, dead, rebuilt, payloads = bundleState(t, old)
	if !rebuilt {
		t.Fatal("missing index did not trigger a needle scan")
	}
	if !reflect.DeepEqual(refs, wantRefs) || dead != wantDead || !reflect.DeepEqual(payloads, wantPayloads) {
		t.Fatalf("golden via needle scan: refs %+v dead %d, want %+v dead %d", refs, dead, wantRefs, wantDead)
	}
	// The scan persisted a fresh index: the same bytes as the golden.
	if got, err := os.ReadFile(IndexPath(old)); err != nil || !bytes.Equal(got, wantIndex) {
		t.Fatalf("index rebuilt by scan differs from the golden (err %v):\n got %x\nwant %x", err, got, wantIndex)
	}
}
