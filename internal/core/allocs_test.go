package core

import (
	"runtime"
	"testing"

	"repro/internal/movers"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// maxTwoPassBytes bounds the bytes one AnalyzeTwoPass allocates on a
// schedule of philo at certify's configuration (threads 2, size 1), the
// check an exhaustive search makes on every schedule. It reads 2,208, of
// which 784 are the 16 thread slots HintEvents presizes; a checker that
// grew its slots on demand would allocate 1,424.
const maxTwoPassBytes = 2400

// TestTwoPassCheckBytes pins the bytes of one two-pass check on a small
// schedule. It counts bytes, not allocations: the checker's state is a
// handful of small objects whose size, not number, is what a search of
// thousands of schedules pays for.
func TestTwoPassCheckBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	spec, ok := workloads.Get("philo")
	if !ok {
		t.Fatal("workload philo not registered")
	}
	res, err := sched.Run(spec.New(2, 1), sched.Options{Strategy: sched.Cooperative{}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Policy: movers.DefaultPolicy()}
	AnalyzeTwoPass(res.Trace, opts) // warm the pooled race detector
	const checks = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range checks {
		AnalyzeTwoPass(res.Trace, opts)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / checks; got > maxTwoPassBytes {
		t.Fatalf("a two-pass check of %d events allocated %d bytes, want at most %d", res.Events, got, maxTwoPassBytes)
	}
}
