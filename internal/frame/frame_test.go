package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// dirEntries lists dir's file names.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestPublishReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xca")
	if err := Publish(fault.OS, path, Bytes([]byte("old"))); err != nil {
		t.Fatal(err)
	}
	if err := Publish(nil, path, Bytes([]byte("new"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("published %q, want %q", got, "new")
	}

	// A failing body leaves the old file and no temp file behind.
	boom := errors.New("boom")
	err := Publish(fault.OS, path, func(w io.Writer) error {
		w.Write([]byte("torn"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the body's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("failed publish left %q, want %q", got, "new")
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %q, want only doc.xca", names)
	}
}

// TestPublishReturnsEveryError injects an fsync failure into each of
// Publish's two syncs in turn — the file's and the directory's — and
// requires both to surface.
func TestPublishReturnsEveryError(t *testing.T) {
	for _, target := range []string{"file", "dir"} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "doc.xcs")
			in := fault.NewInjector(fault.Config{
				PerMille: map[fault.Kind]int{fault.SyncFail: 1000},
				Match: func(p string) bool {
					if target == "dir" {
						return p == dir
					}
					return p != dir
				},
			})
			err := Publish(in.FS(fault.OS), path, Bytes([]byte("payload")))
			var ie *fault.InjectedError
			if !errors.As(err, &ie) || ie.Kind != fault.SyncFail {
				t.Fatalf("err = %v, want the injected %s fsync failure", err, target)
			}
			for _, name := range dirEntries(t, dir) {
				if name != "doc.xcs" {
					t.Fatalf("temp file %q left behind", name)
				}
			}
		})
	}
}

func TestOpenAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.seg")
	f, size, err := OpenAppend(fault.OS, path)
	if err != nil || size != 0 {
		t.Fatalf("fresh open: size %d, err %v", size, err)
	}
	f.Write([]byte("abc"))
	f.Close()
	f, size, err = OpenAppend(fault.OS, path)
	if err != nil || size != 3 {
		t.Fatalf("reopen: size %d, err %v; want 3", size, err)
	}
	f.Write([]byte("de"))
	f.Close()
	if got, _ := os.ReadFile(path); string(got) != "abcde" {
		t.Fatalf("appended file holds %q", got)
	}

	// Creating the file fsyncs the directory; a failure there fails
	// the open rather than handing out a log that could vanish.
	in := fault.NewInjector(fault.Config{
		PerMille: map[fault.Kind]int{fault.SyncFail: 1000},
		Match:    func(p string) bool { return p == dir },
	})
	if _, _, err := OpenAppend(in.FS(fault.OS), filepath.Join(dir, "new.seg")); err == nil {
		t.Fatal("a failed directory fsync on create was swallowed")
	}
}

// TestPublishMode checks that a published file gets the same permission
// bits as an appended one created in the same directory.
func TestPublishMode(t *testing.T) {
	dir := t.TempDir()
	pub, app := filepath.Join(dir, "doc.xca"), filepath.Join(dir, "wal.seg")
	if err := Publish(fault.OS, pub, Bytes([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	f, _, err := OpenAppend(fault.OS, app)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	modes := make([]os.FileMode, 2)
	for i, path := range []string{pub, app} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		modes[i] = fi.Mode().Perm()
	}
	if modes[0] != modes[1] {
		t.Fatalf("published file is %v, appended file %v", modes[0], modes[1])
	}
}

func TestRecordRoundTrip(t *testing.T) {
	// Bodies around and past bodyChunk take ReadRecord's growth path.
	bodies := [][]byte{[]byte("a"), {}, bytes.Repeat([]byte{0xCD}, 300),
		bytes.Repeat([]byte{0xA5}, bodyChunk), bytes.Repeat([]byte{0x5A}, 3*bodyChunk+5)}
	var buf []byte
	for _, b := range bodies {
		buf = AppendRecord(buf, b)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i, want := range bodies {
		got, err := ReadRecord(r, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes, %v; want %d bytes", i, len(got), err, len(want))
		}
	}
	if _, err := ReadRecord(r, 1<<20); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}

	one := AppendRecord(nil, []byte("payload"))
	big := AppendRecord(nil, bodies[len(bodies)-1])
	for name, data := range map[string][]byte{
		"torn":      one[:len(one)-1],
		"torn big":  big[:len(big)-1],
		"flipped":   append(append([]byte{}, one[:len(one)-1]...), one[len(one)-1]^1),
		"over max":  one,
		"bare len":  one[:1],
		"empty crc": one[:3],
	} {
		max := uint64(1 << 20)
		if name == "over max" {
			max = 6
		}
		if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(data)), max); err != ErrTorn {
			t.Errorf("%s: err = %v, want ErrTorn", name, err)
		}
	}
}

func TestSealUnseal(t *testing.T) {
	sealed := Seal([]byte("XBI1payload"))
	if got, ok := Unseal(sealed); !ok || string(got) != "XBI1payload" {
		t.Fatalf("Unseal = %q, %v", got, ok)
	}
	for i := range sealed {
		bad := append([]byte{}, sealed...)
		bad[i] ^= 0x10
		if _, ok := Unseal(bad); ok {
			t.Fatalf("flip at %d accepted", i)
		}
	}
	for _, n := range []int{0, 3} {
		if _, ok := Unseal(sealed[:n]); ok {
			t.Fatalf("%d-byte input accepted", n)
		}
	}
}

// FuzzReadRecord throws arbitrary bytes at the record reader shared by
// the WAL and the bundle needle headers: it must never panic or accept
// a body over its bound, and every body it accepts must survive a
// re-frame / re-read round trip unchanged (so replay is deterministic).
func FuzzReadRecord(f *testing.F) {
	f.Add(AppendRecord(nil, []byte("body")))
	f.Add(AppendRecord(AppendRecord(nil, nil), []byte{0xff}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	const max = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			body, err := ReadRecord(r, max)
			if err == io.EOF || err == ErrTorn {
				return
			}
			if err != nil {
				t.Fatalf("unexpected error %v", err)
			}
			if len(body) > max {
				t.Fatalf("accepted a %d-byte body over the %d bound", len(body), max)
			}
			again, err := ReadRecord(bufio.NewReader(bytes.NewReader(AppendRecord(nil, body))), max)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("re-reading a re-framed body: %x, %v; want %x", again, err, body)
			}
		}
	})
}
