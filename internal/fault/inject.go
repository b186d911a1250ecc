package fault

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"
)

// Kind names one injectable fault class.
type Kind int

const (
	// TornWrite persists a prefix of the buffer and fails the write —
	// the on-disk state a crash mid-write leaves behind.
	TornWrite Kind = iota
	// ShortRead returns a prefix of the requested bytes with an I/O
	// error, as a failing disk or racing truncate would.
	ShortRead
	// BitFlip silently flips one bit in the returned buffer. No error:
	// only a checksum downstream can notice.
	BitFlip
	// SyncFail fails fsync without syncing; buffered data may or may
	// not be durable.
	SyncFail
	// ENOSPC persists a prefix of the buffer and fails the write with
	// syscall.ENOSPC.
	ENOSPC
	// Delay sleeps Config.Delay before the operation, then lets it
	// proceed untouched.
	Delay
	numKinds
)

var kindNames = [numKinds]string{"torn_write", "short_read", "bit_flip", "sync_fail", "enospc", "delay"}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists every fault class, for harnesses that sweep them.
func Kinds() []Kind {
	return []Kind{TornWrite, ShortRead, BitFlip, SyncFail, ENOSPC, Delay}
}

// InjectedError marks an error as deliberately injected, so tests and
// retry policies can tell scheduled faults from real I/O failures.
type InjectedError struct {
	Kind Kind
	Op   string
	Path string
	Err  error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s during %s %s: %v", e.Kind, e.Op, e.Path, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// Config is an injection schedule. The zero value injects nothing.
type Config struct {
	// Seed makes the schedule deterministic: equal seeds over the same
	// operation sequence inject the same faults.
	Seed int64
	// PerMille[k] is the chance, in thousandths, that an eligible
	// operation suffers fault class k.
	PerMille map[Kind]int
	// Delay is how long a Delay fault sleeps.
	Delay time.Duration
	// Match restricts injection to paths it accepts (nil: all paths).
	Match func(path string) bool
	// SkipOps exempts the first N eligible operations, letting setup
	// complete before the schedule bites.
	SkipOps int
}

// Injector decides, per operation, whether to inject a fault. Wrap an
// FS with Injector.FS to put it in the path. Safe for concurrent use;
// determinism holds for serial operation sequences (concurrent ops
// race for draws from the shared seeded stream).
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    Config
	armed  bool
	ops    uint64
	counts [numKinds]uint64
}

// NewInjector builds an armed injector from cfg.
func NewInjector(cfg Config) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg, armed: true}
}

// Arm enables injection; Disarm suspends it (counters are kept).
func (in *Injector) Arm()    { in.setArmed(true) }
func (in *Injector) Disarm() { in.setArmed(false) }

func (in *Injector) setArmed(v bool) {
	in.mu.Lock()
	in.armed = v
	in.mu.Unlock()
}

// Counts reports how many faults of each class were injected.
func (in *Injector) Counts() map[Kind]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	m := make(map[Kind]uint64, numKinds)
	for k, n := range in.counts {
		if n > 0 {
			m[Kind(k)] = n
		}
	}
	return m
}

// Total reports the total number of injected faults.
func (in *Injector) Total() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t uint64
	for _, n := range in.counts {
		t += n
	}
	return t
}

// decide draws from the seeded stream: should fault class k hit this
// operation on path? One draw per (operation, class) keeps the
// schedule deterministic for a fixed operation sequence.
func (in *Injector) decide(k Kind, path string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.armed || in.cfg.PerMille[k] == 0 {
		return false
	}
	if in.cfg.Match != nil && !in.cfg.Match(path) {
		return false
	}
	in.ops++
	if in.ops <= uint64(in.cfg.SkipOps) {
		return false
	}
	if in.rng.Intn(1000) >= in.cfg.PerMille[k] {
		return false
	}
	in.counts[k]++
	return true
}

func (in *Injector) maybeDelay(path string) {
	if in.decide(Delay, path) && in.cfg.Delay > 0 {
		time.Sleep(in.cfg.Delay)
	}
}

func injected(k Kind, op, path string, errno error) error {
	return &InjectedError{Kind: k, Op: op, Path: path, Err: errno}
}

// FS wraps fsys so every operation consults the injector's schedule.
func (in *Injector) FS(fsys FS) FS {
	return &faultFS{inner: Get(fsys), in: in}
}

type faultFS struct {
	inner FS
	in    *Injector
}

func (f *faultFS) wrap(file File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: file, in: f.in, path: file.Name()}, nil
}

func (f *faultFS) Open(name string) (File, error) {
	f.in.maybeDelay(name)
	return f.wrap(f.inner.Open(name))
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.in.maybeDelay(name)
	return f.wrap(f.inner.OpenFile(name, flag, perm))
}

func (f *faultFS) CreateTemp(dir, pattern string) (File, error) {
	f.in.maybeDelay(dir)
	return f.wrap(f.inner.CreateTemp(dir, pattern))
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	f.in.maybeDelay(name)
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return data, err
	}
	if f.in.decide(ShortRead, name) {
		return data[:len(data)/2], injected(ShortRead, "readfile", name, syscall.EIO)
	}
	if f.in.decide(BitFlip, name) && len(data) > 0 {
		data[f.in.offset(len(data))] ^= 1 << uint(f.in.offset(8))
	}
	return data, nil
}

func (f *faultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.in.maybeDelay(name)
	if f.in.decide(ENOSPC, name) {
		f.inner.WriteFile(name, data[:len(data)/2], perm)
		return injected(ENOSPC, "writefile", name, syscall.ENOSPC)
	}
	if f.in.decide(TornWrite, name) {
		f.inner.WriteFile(name, data[:len(data)/2], perm)
		return injected(TornWrite, "writefile", name, syscall.EIO)
	}
	return f.inner.WriteFile(name, data, perm)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	f.in.maybeDelay(newpath)
	// A failed rename is the commit point of the torn-write class: the
	// temp file stays, the destination never appears.
	if f.in.decide(TornWrite, newpath) {
		return injected(TornWrite, "rename", newpath, syscall.EIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *faultFS) Remove(name string) error {
	f.in.maybeDelay(name)
	return f.inner.Remove(name)
}

func (f *faultFS) Truncate(name string, size int64) error {
	f.in.maybeDelay(name)
	return f.inner.Truncate(name, size)
}

func (f *faultFS) Stat(name string) (os.FileInfo, error) { return f.inner.Stat(name) }

func (f *faultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

func (f *faultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// offset draws a deterministic offset in [0, n).
func (in *Injector) offset(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

type faultFile struct {
	inner File
	in    *Injector
	path  string
}

func (f *faultFile) Read(p []byte) (int, error) {
	f.in.maybeDelay(f.path)
	if len(p) > 0 && f.in.decide(ShortRead, f.path) {
		n, err := f.inner.Read(p[:(len(p)+1)/2])
		if err != nil {
			return n, err
		}
		return n, injected(ShortRead, "read", f.path, syscall.EIO)
	}
	n, err := f.inner.Read(p)
	if err == nil && n > 0 && f.in.decide(BitFlip, f.path) {
		p[f.in.offset(n)] ^= 1 << uint(f.in.offset(8))
	}
	return n, err
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.in.maybeDelay(f.path)
	if len(p) > 0 && f.in.decide(ShortRead, f.path) {
		n, err := f.inner.ReadAt(p[:(len(p)+1)/2], off)
		if err != nil {
			return n, err
		}
		return n, injected(ShortRead, "pread", f.path, syscall.EIO)
	}
	n, err := f.inner.ReadAt(p, off)
	if err == nil && n > 0 && f.in.decide(BitFlip, f.path) {
		p[f.in.offset(n)] ^= 1 << uint(f.in.offset(8))
	}
	return n, err
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.in.maybeDelay(f.path)
	if f.in.decide(ENOSPC, f.path) {
		n, _ := f.inner.Write(p[:len(p)/2])
		return n, injected(ENOSPC, "write", f.path, syscall.ENOSPC)
	}
	if f.in.decide(TornWrite, f.path) {
		n, _ := f.inner.Write(p[:len(p)/2])
		return n, injected(TornWrite, "write", f.path, syscall.EIO)
	}
	return f.inner.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	f.in.maybeDelay(f.path)
	if f.in.decide(ENOSPC, f.path) {
		n, _ := f.inner.WriteAt(p[:len(p)/2], off)
		return n, injected(ENOSPC, "pwrite", f.path, syscall.ENOSPC)
	}
	if f.in.decide(TornWrite, f.path) {
		n, _ := f.inner.WriteAt(p[:len(p)/2], off)
		return n, injected(TornWrite, "pwrite", f.path, syscall.EIO)
	}
	return f.inner.WriteAt(p, off)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Sync() error {
	f.in.maybeDelay(f.path)
	if f.in.decide(SyncFail, f.path) {
		return injected(SyncFail, "fsync", f.path, syscall.EIO)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }

func (f *faultFile) Name() string { return f.inner.Name() }

func (f *faultFile) Stat() (os.FileInfo, error) { return f.inner.Stat() }

func (f *faultFile) Chmod(mode os.FileMode) error { return f.inner.Chmod(mode) }

func (f *faultFile) Truncate(size int64) error { return f.inner.Truncate(size) }
