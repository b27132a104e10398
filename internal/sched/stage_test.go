package sched

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// longCounter is a run of about 20k events, five staging chunks.
func longCounter() *Program { return counterProgram(4, 1250, true) }

// TestLongRunBatches runs a program that fills several staging chunks with
// an event-copying observer: the observer must see exactly the trace, each
// full chunk as one batch and then the partial last one, and attaching it
// must not change the trace.
func TestLongRunBatches(t *testing.T) {
	opts := Options{Strategy: &RoundRobin{Quantum: 3}, RecordTrace: true}
	ref, err := Run(longCounter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	br := &batchRecorder{}
	opts.Strategy, opts.Observers = &RoundRobin{Quantum: 3}, []Observer{br}
	res, err := Run(longCounter(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 4*chunkEvents {
		t.Fatalf("%d events, want several chunks' worth", res.Events)
	}
	sameEvents(t, br.events, res.Trace.Events, "observer")
	checkBatches(t, br.batchSizes, res.Events, "observer")
	sameEvents(t, res.Trace.Events, ref.Trace.Events, "run with an observer against one without")
}

// TestConcurrentLongRuns runs long programs from four goroutines at once,
// so their runtimes take chunks from, and return them to, the shared pool
// while the others record: every run must match the same run made alone.
func TestConcurrentLongRuns(t *testing.T) {
	strategy := func(i int) Strategy {
		if i%2 == 0 {
			return &RoundRobin{Quantum: 1 + i}
		}
		return NewRandom(int64(i))
	}
	const goroutines = 4
	want := make([]*Result, goroutines)
	for i := range want {
		res, err := Run(longCounter(), Options{Strategy: strategy(i), RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				res, err := Run(longCounter(), Options{Strategy: strategy(i), RecordTrace: true})
				switch {
				case err != nil:
					errs[i] = err
				case !slices.Equal(res.Trace.Events, want[i].Trace.Events):
					errs[i] = fmt.Errorf("goroutine %d: trace differs from the run made alone", i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// maxLongRunAllocRatio bounds what one warm Run of a long program may
// allocate, as a multiple of the bytes its trace holds. A run that grew
// its trace and a schedule by append allocated 4.8 times what the two held.
const maxLongRunAllocRatio = 1.5

// TestLongRunAllocs measures one Run of a program of about 100k events,
// after a warm-up Run: staged in pooled chunks and copied out once at its
// exact length, the run allocates little more than its Result's trace
// holds.
func TestLongRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p := counterProgram(4, 6250, true)
	opts := Options{Strategy: &RoundRobin{Quantum: 1}, RecordTrace: true}
	if _, err := Run(p, opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(p, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	held := float64(uintptr(len(res.Trace.Events)) * unsafe.Sizeof(trace.Event{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > maxLongRunAllocRatio*held {
		t.Fatalf("a run of %d events allocated %.0f bytes, %.2f times the %.0f its trace holds; want at most %.1f",
			res.Events, got, got/held, held, maxLongRunAllocRatio)
	}
}
