// Package faultfs abstracts the filesystem operations the registry's
// persistence layer performs, so tests can inject faults — a write that
// fails halfway, a rename that never happens, a disk that fills up — at any
// chosen point in the write-temp-fsync-rename protocol. Durability claims
// ("after any crash the registry reloads to a consistent manifest") are
// only as good as the fault schedule they survived; this package is that
// schedule.
//
// Production code uses OS, a thin passthrough to the os package plus the
// directory-fsync that os.Rename alone does not provide. Chaos tests wrap
// it in an Injector.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"
)

// Operation names used by Injector rules and counters. Each names one
// FS/File method; OpAny matches every operation.
const (
	OpCreate  = "create"  // FS.CreateTemp
	OpWrite   = "write"   // File.Write
	OpSync    = "sync"    // File.Sync
	OpClose   = "close"   // File.Close
	OpRename  = "rename"  // FS.Rename
	OpRemove  = "remove"  // FS.Remove
	OpRead    = "read"    // FS.ReadFile
	OpReadDir = "readdir" // FS.ReadDir
	OpStat    = "stat"    // FS.Stat
	OpMkdir   = "mkdir"   // FS.MkdirAll
	OpSyncDir = "syncdir" // FS.SyncDir
	OpAny     = "*"
)

// ErrInjected marks a fault produced by an Injector rule. Chaos tests
// assert errors.Is(err, ErrInjected) to distinguish scheduled faults from
// real ones.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrNoSpace is the injected disk-full error (wraps both ErrInjected and
// syscall.ENOSPC so production code that special-cases ENOSPC sees it).
var ErrNoSpace = fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)

// File is the writable handle returned by CreateTemp. Sync is part of the
// interface because durability of a rename-based protocol depends on the
// data hitting the platter before the rename publishes it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the slice of filesystem the registry needs.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making a preceding rename in it durable.
	SyncDir(dir string) error
}

// OS is the production FS: the os package plus directory fsync.
type OS struct{}

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error             { return os.Remove(name) }
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) {
	return os.ReadDir(name)
}
func (OS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some platforms (and some filesystems) refuse to fsync a directory;
	// that is a property of the platform, not a torn write, so EINVAL is
	// tolerated the way database WAL implementations tolerate it.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil && !errors.Is(serr, syscall.EINVAL) {
		return serr
	}
	return cerr
}

// rule is one scheduled fault: the nth future occurrence of op fails with
// err. A short-write rule writes half the buffer before failing.
type rule struct {
	op    string
	nth   int // occurrences of op remaining before this rule fires
	err   error
	short bool
}

// Injector wraps an FS and fails chosen operations on schedule. Safe for
// concurrent use. Zero rules = transparent passthrough (with counting).
type Injector struct {
	inner FS

	mu     sync.Mutex
	counts map[string]int
	rules  []*rule
}

// NewInjector wraps inner (nil selects OS{}).
func NewInjector(inner FS) *Injector {
	if inner == nil {
		inner = OS{}
	}
	return &Injector{inner: inner, counts: make(map[string]int)}
}

// FailNth schedules the nth future occurrence of op (1 = the next one) to
// fail with err (nil selects ErrInjected). op may be OpAny.
func (in *Injector) FailNth(op string, nth int, err error) {
	if err == nil {
		err = ErrInjected
	}
	if nth < 1 {
		nth = 1
	}
	in.mu.Lock()
	in.rules = append(in.rules, &rule{op: op, nth: nth, err: err})
	in.mu.Unlock()
}

// ShortWriteNth schedules the nth future Write to write only half its
// buffer and then fail with ErrNoSpace — the classic torn write.
func (in *Injector) ShortWriteNth(nth int) {
	if nth < 1 {
		nth = 1
	}
	in.mu.Lock()
	in.rules = append(in.rules, &rule{op: OpWrite, nth: nth, err: ErrNoSpace, short: true})
	in.mu.Unlock()
}

// Count reports how many times op has been attempted (faulted or not).
func (in *Injector) Count(op string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[op]
}

// Reset drops all pending rules and zeroes the counters.
func (in *Injector) Reset() {
	in.mu.Lock()
	in.rules = nil
	in.counts = make(map[string]int)
	in.mu.Unlock()
}

// check counts one occurrence of op and returns the fault scheduled for it,
// if any. Every matching rule is decremented for this occurrence — never
// only the one that fires, or two schedules on the same op would drift
// apart by one occurrence each time one fired — and the first rule whose
// count is exhausted is consumed and returned. A second rule exhausted on
// the same occurrence fires on the next one.
func (in *Injector) check(op string) (error, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[op]++
	fired := -1
	for i, r := range in.rules {
		if r.op != op && r.op != OpAny {
			continue
		}
		r.nth--
		if r.nth <= 0 && fired < 0 {
			fired = i
		}
	}
	if fired < 0 {
		return nil, false
	}
	r := in.rules[fired]
	in.rules = append(in.rules[:fired], in.rules[fired+1:]...)
	return r.err, r.short
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := in.check(OpCreate); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injFile{inner: f, in: in}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err, _ := in.check(OpRename); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if err, _ := in.check(OpRemove); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err, _ := in.check(OpRead); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _ := in.check(OpReadDir); err != nil {
		return nil, err
	}
	return in.inner.ReadDir(name)
}

func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if err, _ := in.check(OpStat); err != nil {
		return nil, err
	}
	return in.inner.Stat(name)
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := in.check(OpMkdir); err != nil {
		return err
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) SyncDir(dir string) error {
	if err, _ := in.check(OpSyncDir); err != nil {
		return err
	}
	return in.inner.SyncDir(dir)
}

// injFile threads Write/Sync/Close through the injector's schedule.
type injFile struct {
	inner File
	in    *Injector
}

func (f *injFile) Write(p []byte) (int, error) {
	err, short := f.in.check(OpWrite)
	if err != nil {
		if short && len(p) > 0 {
			n, werr := f.inner.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *injFile) Sync() error {
	if err, _ := f.in.check(OpSync); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *injFile) Close() error {
	if err, _ := f.in.check(OpClose); err != nil {
		f.inner.Close() // release the handle even when reporting a fault
		return err
	}
	return f.inner.Close()
}

func (f *injFile) Name() string { return f.inner.Name() }
