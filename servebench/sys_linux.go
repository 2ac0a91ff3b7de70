package main

import (
	"syscall"
	"unsafe"
)

// statfsType names the filesystem holding dir.
func statfsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	return fsName(int64(st.Type))
}

// mapSlice reserves room for n values of T in an anonymous mapping,
// outside the Go heap; only the pages written become resident. T must hold
// no pointers: the collector does not scan the mapping.
func mapSlice[T any](n int) ([]T, func()) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n), func() {}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0], func() { syscall.Munmap(b) }
}
