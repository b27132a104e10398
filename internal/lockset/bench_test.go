package lockset

import (
	"testing"

	"repro/internal/trace"
)

// locksetBenchTrace exercises the Eraser hot paths: lock bookkeeping,
// the ownership state machine, and lockset refinement on shared variables.
// Half the accesses are thread-local (Exclusive stays cheap), half hit
// lock-guarded shared variables that live in Shared/SharedModified.
func locksetBenchTrace(nThreads, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < rounds; i++ {
		for t := 0; t < nThreads; t++ {
			tid := trace.TID(t)
			b.On(tid).Acq(0).Acq(1)
			b.Read(100).Write(100) // shared-modified under {0,1}
			b.Rel(1)
			b.Read(101).Write(101) // shared-modified under {0}
			b.Rel(0)
			for k := 0; k < 4; k++ {
				b.Read(uint64(t)).Write(uint64(t)) // exclusive
			}
		}
	}
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).End()
	}
	return b.Trace()
}

// locksetBenchTraceRacy accesses the shared variables with disjoint (and
// eventually empty) locksets so the warning path runs too.
func locksetBenchTraceRacy(nThreads, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < rounds; i++ {
		for t := 0; t < nThreads; t++ {
			tid := trace.TID(t)
			lock := uint64(t % 2) // alternating guards empty the candidate set
			b.On(tid).Acq(lock)
			b.Read(100).Write(100)
			b.Rel(lock)
			for k := 0; k < 4; k++ {
				b.Read(uint64(200 + t)).Write(uint64(200 + t))
			}
		}
	}
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).End()
	}
	return b.Trace()
}

func runLocksetBench(b *testing.B, tr *trace.Trace) {
	b.Helper()
	b.ReportAllocs()
	events := len(tr.Events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New()
		for _, e := range tr.Events {
			c.Event(e)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLocksetEvent is the isolated Eraser hot-path benchmark on a
// warning-free trace.
func BenchmarkLocksetEvent(b *testing.B) {
	tr := locksetBenchTrace(4, 250) // ~15k events
	runLocksetBench(b, tr)
}

// BenchmarkLocksetEventRacy adds candidate-set exhaustion and warnings.
func BenchmarkLocksetEventRacy(b *testing.B) {
	tr := locksetBenchTraceRacy(4, 250)
	runLocksetBench(b, tr)
}
