// Package fault abstracts the filesystem operations behind every
// durable path in the system (WAL segments, archives, sidecars,
// bundles) so tests can interpose a deterministic fault injector —
// torn writes, short reads, bit flips, fsync failures, ENOSPC,
// delayed I/O — without patching os.* call sites one by one.
//
// Production code holds a fault.FS (defaulting to fault.OS, a zero-
// cost passthrough to the os package) and uses it for every open,
// read, write, sync, rename and remove on durable state. The torture
// harness wraps the same FS in an Injector built from a seeded
// schedule, so a failing run is reproducible from its seed alone.
package fault

import (
	"io"
	"io/fs"
	"os"
)

// File is the slice of *os.File the durable paths actually use.
// *os.File satisfies it directly; injected files wrap one.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.WriterAt
	io.Seeker
	io.Closer
	Name() string
	Stat() (os.FileInfo, error)
	Chmod(mode os.FileMode) error
	Sync() error
	Truncate(size int64) error
}

// FS is the filesystem surface of the durable paths. Methods mirror
// the os package; implementations must be safe for concurrent use.
type FS interface {
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the passthrough FS: every method delegates to the os package.
// It is the default everywhere a fault.FS is accepted.
var OS FS = osFS{}

// Get returns fsys, or OS when fsys is nil — so Options structs can
// leave their FS field zero without every call site nil-checking.
func Get(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
