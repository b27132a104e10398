package main

import (
	"runtime"
	"time"
)

var refSink map[int][]byte

// reference runs a fixed piece of work of the benchmark's own, which no
// change to the program can speed up or slow down, and returns its time.
// Like the program's layers it fills maps with small allocations, and the
// machine's slow spells, which slow allocation-heavy code most, slow it as
// they slow the items. It allocates ~0.7 MB, less than a collected heap
// grows before the collector starts, so it never runs the collector and
// its time does not depend on the size of the program's live heap.
func reference() time.Duration {
	t0 := time.Now()
	for i := 0; i < 5; i++ {
		m := map[int][]byte{}
		for k := 0; k < 1000; k++ {
			m[k] = make([]byte, 64)
		}
		refSink = m
	}
	refSink = nil
	return time.Since(t0)
}

// referenceAlloc is the heap allocation of one reference call, which the
// timed passes leave out of alloc_mb_per_verdict; the kernel allocates the
// same every time.
func referenceAlloc() uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reference()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}
