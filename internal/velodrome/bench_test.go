package velodrome

import (
	"testing"

	"repro/internal/trace"
)

// veloBenchTrace exercises the graph-construction hot path: transactional
// nodes (atomic blocks), unary nodes for the events between them, and
// lock/variable communication edges.
func veloBenchTrace(nThreads, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < rounds; i++ {
		for t := 0; t < nThreads; t++ {
			tid := trace.TID(t)
			b.On(tid).AtomicBegin()
			b.Acq(0)
			b.Read(100).Write(100)
			b.Rel(0)
			b.AtomicEnd()
			for k := 0; k < 4; k++ {
				b.Read(uint64(t)).Write(uint64(t)) // unary nodes
			}
		}
	}
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).End()
	}
	return b.Trace()
}

// veloBenchTraceRacy interleaves unsynchronized cross-thread accesses inside
// transactions so cycles (violations) exist and the read-set bookkeeping is
// stressed.
func veloBenchTraceRacy(nThreads, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < rounds; i++ {
		for t := 0; t < nThreads; t++ {
			tid := trace.TID(t)
			b.On(tid).AtomicBegin()
			b.Read(100).Write(101).Read(101).Write(100) // crossing edges
			b.AtomicEnd()
		}
	}
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).End()
	}
	return b.Trace()
}

func runVeloBench(b *testing.B, tr *trace.Trace) {
	b.Helper()
	b.ReportAllocs()
	events := len(tr.Events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Options{})
		for _, e := range tr.Events {
			c.Event(e)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkVelodromeEvent is the isolated graph-construction benchmark on a
// serializable trace (Event only; cycle detection is a cold path).
func BenchmarkVelodromeEvent(b *testing.B) {
	tr := veloBenchTrace(4, 250) // ~14k events
	runVeloBench(b, tr)
}

// BenchmarkVelodromeEventRacy builds a cyclic graph with heavy read-set
// churn.
func BenchmarkVelodromeEventRacy(b *testing.B) {
	tr := veloBenchTraceRacy(4, 250)
	runVeloBench(b, tr)
}
