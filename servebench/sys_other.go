//go:build !linux

package main

// statfsType names the filesystem holding dir; only Linux is inspected.
func statfsType(dir string) string { return "unknown" }

// mapSlice keeps the values on the Go heap where the Linux mapping is not
// available.
func mapSlice[T any](n int) ([]T, func()) { return make([]T, 0, n), func() {} }
