// Package platform declares one function in two files, one for amd64 and
// one for every other architecture, as internal/sched declares capturePC:
// the loader must type-check only the file the host builds.
package platform

import "sync"

var (
	mu    sync.Mutex
	total int
)

// Add adds the platform's step to total under mu.
func Add() {
	mu.Lock()
	total += step()
	mu.Unlock()
}
