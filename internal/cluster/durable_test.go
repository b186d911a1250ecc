package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/synopsis"
)

// recordingFS wraps a fault.FS and logs, in order, every file an
// OpenFile creates, every rename target and every directory fsync.
type recordingFS struct {
	fault.FS
	mu  sync.Mutex
	ops []string
}

func (r *recordingFS) log(op, path string) {
	r.mu.Lock()
	r.ops = append(r.ops, op+" "+filepath.Clean(path))
	r.mu.Unlock()
}

func (r *recordingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	_, statErr := r.FS.Stat(name)
	f, err := r.FS.OpenFile(name, flag, perm)
	if err == nil && flag&os.O_CREATE != 0 && os.IsNotExist(statErr) {
		r.log("create", name)
	}
	return f, err
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	err := r.FS.Rename(oldpath, newpath)
	if err == nil {
		r.log("rename", newpath)
	}
	return err
}

func (r *recordingFS) Open(name string) (fault.File, error) {
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r}, nil
}

type recordingFile struct {
	fault.File
	fs *recordingFS
}

func (f *recordingFile) Sync() error {
	err := f.File.Sync()
	if fi, serr := f.File.Stat(); err == nil && serr == nil && fi.IsDir() {
		f.fs.log("syncdir", f.Name())
	}
	return err
}

// requireDirSynced fails unless the log holds "op path" followed, later,
// by an fsync of path's directory.
func (r *recordingFS) requireDirSynced(t *testing.T, op, path string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	want, sync := op+" "+filepath.Clean(path), "syncdir "+filepath.Dir(filepath.Clean(path))
	last := -1
	for i, o := range r.ops {
		if o == want {
			last = i
		}
	}
	if last < 0 {
		t.Fatalf("never saw %q; ops %q", want, r.ops)
	}
	for _, o := range r.ops[last+1:] {
		if o == sync {
			return
		}
	}
	t.Fatalf("%q was not followed by a directory fsync; ops %q", want, r.ops)
}

// TestDurableWritesSyncDirectory pins that every write path here fsyncs
// the parent directory after its rename or create and before it
// returns: without that, a power cut can drop the new directory entry —
// and the fsynced bytes behind it.
func TestDurableWritesSyncDirectory(t *testing.T) {
	t.Run("AcceptReplica", func(t *testing.T) {
		srcDir := t.TempDir()
		raw := encodeArchive(t, corpus.Catalog()[0].Generate(3, 7))
		if err := os.WriteFile(filepath.Join(srcDir, "doc"+store.Ext), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := store.Open(srcDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		archive, sidecar, err := src.ReplicaPayload("doc")
		if err != nil || len(sidecar) == 0 {
			t.Fatalf("replica payload: %v (sidecar %d bytes)", err, len(sidecar))
		}

		rec := &recordingFS{FS: fault.OS}
		dstDir := t.TempDir()
		dst, err := store.Open(dstDir, store.Options{FS: rec})
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		if err := dst.AcceptReplica("doc", archive, sidecar); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dstDir, "doc"+store.Ext)
		rec.requireDirSynced(t, "rename", path)
		rec.requireDirSynced(t, "rename", synopsis.SidecarPath(path))
	})

	t.Run("PendingLogCreate", func(t *testing.T) {
		rec := &recordingFS{FS: fault.OS}
		dir := t.TempDir()
		l, err := openPendingLog(rec, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		rec.requireDirSynced(t, "create", filepath.Join(dir, "pending.log"))
	})

	t.Run("PendingLogCompaction", func(t *testing.T) {
		rec := &recordingFS{FS: fault.OS}
		dir := t.TempDir()
		l, err := openPendingLog(rec, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.Add(transfer{Doc: "keeper", Peer: "http://n2"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < compactThreshold; i++ {
			tr := transfer{Doc: fmt.Sprintf("doc-%03d", i), Peer: "http://n2"}
			if err := l.Add(tr); err != nil {
				t.Fatal(err)
			}
			if err := l.Done(tr); err != nil {
				t.Fatal(err)
			}
		}
		rec.requireDirSynced(t, "rename", filepath.Join(dir, "pending.log"))
	})
}
