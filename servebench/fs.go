package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dspot/internal/faultfs"
)

// benchFS is the benchmark's faultfs.FS, passed as registry.Options.FS. It
// counts the bytes and calls the registry's persistence makes, and in a
// traced run records a faultfs.<op> span per call, nested under the span
// the recorder names as the file-system parent.
type benchFS struct {
	inner faultfs.FS
	rec   *recorder
	bytes atomic.Int64
	ops   atomic.Int64
}

// call times one file-system call.
func (b *benchFS) call(op string, f func() error) error {
	b.ops.Add(1)
	id := b.rec.begin("faultfs."+op, b.rec.fsParentID())
	err := f()
	b.rec.end(id, "")
	return err
}

func (b *benchFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	var f faultfs.File
	err := b.call(faultfs.OpCreate, func() (err error) {
		f, err = b.inner.CreateTemp(dir, pattern)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &benchFile{File: f, fs: b}, nil
}

func (b *benchFS) Rename(oldpath, newpath string) error {
	return b.call(faultfs.OpRename, func() error { return b.inner.Rename(oldpath, newpath) })
}

func (b *benchFS) Remove(name string) error {
	return b.call(faultfs.OpRemove, func() error { return b.inner.Remove(name) })
}

func (b *benchFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := b.call(faultfs.OpRead, func() (err error) {
		data, err = b.inner.ReadFile(name)
		return err
	})
	return data, err
}

func (b *benchFS) ReadDir(name string) ([]fs.DirEntry, error) {
	var des []fs.DirEntry
	err := b.call(faultfs.OpReadDir, func() (err error) {
		des, err = b.inner.ReadDir(name)
		return err
	})
	return des, err
}

func (b *benchFS) Stat(name string) (fs.FileInfo, error) {
	var fi fs.FileInfo
	err := b.call(faultfs.OpStat, func() (err error) {
		fi, err = b.inner.Stat(name)
		return err
	})
	return fi, err
}

func (b *benchFS) MkdirAll(path string, perm fs.FileMode) error {
	return b.call(faultfs.OpMkdir, func() error { return b.inner.MkdirAll(path, perm) })
}

func (b *benchFS) SyncDir(dir string) error {
	return b.call(faultfs.OpSyncDir, func() error { return b.inner.SyncDir(dir) })
}

type benchFile struct {
	faultfs.File
	fs *benchFS
}

func (f *benchFile) Write(p []byte) (int, error) {
	var n int
	err := f.fs.call(faultfs.OpWrite, func() (err error) {
		n, err = f.File.Write(p)
		return err
	})
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *benchFile) Sync() error {
	return f.fs.call(faultfs.OpSync, f.File.Sync)
}

func (f *benchFile) Close() error {
	return f.fs.call(faultfs.OpClose, f.File.Close)
}

// memFS is an in-memory faultfs.FS: the fallback when the data dir is not on
// tmpfs. It keeps the registry's whole persistence protocol — marshal,
// create, write, sync, close, rename, directory sync — and drops only the
// kernel's share, whose cost on a journalled virtual disk is host noise.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	seq   int
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]bool{"/": true, ".": true}}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("createtemp", dir)
	}
	m.seq++
	base := pattern + strconv.Itoa(m.seq)
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		base = pattern[:i] + strconv.Itoa(m.seq) + pattern[i+1:]
	}
	name := filepath.Join(dir, base)
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for f, data := range m.files {
		if filepath.Dir(f) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(f), int64(len(data)), false}))
		}
	}
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{filepath.Base(d), 0, true}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if data, ok := m.files[name]; ok {
		return memInfo{filepath.Base(name), int64(len(data)), false}, nil
	}
	if m.dirs[name] {
		return memInfo{filepath.Base(name), 0, true}, nil
	}
	return nil, notExist("stat", name)
}

func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Clean(dir)] {
		return notExist("syncdir", dir)
	}
	return nil
}

// memFile buffers writes and publishes them under its name on Close.
type memFile struct {
	fs   *memFS
	name string
	buf  []byte
}

func (f *memFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Name() string { return f.name }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = f.buf
	return nil
}

type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0xf2f52010: "f2fs",
}

func fsName(magic int64) string {
	if n, ok := fsNames[magic]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", magic)
}

// persistFS picks what the registry persists to under dir: the real
// filesystem when dir is on tmpfs, else the in-memory fallback. It returns
// the filesystem type of dir and the name of the choice.
func persistFS(dir string) (inner faultfs.FS, fsType, used string) {
	fsType = statfsType(dir)
	if fsType == "tmpfs" {
		return faultfs.OS{}, fsType, "os"
	}
	return newMemFS(), fsType, "memfs"
}
