package race

import (
	"testing"

	"repro/internal/trace"
)

// raceBenchTrace builds a synchronization-heavy trace exercising every hot
// branch of Detector.Event: lock-guarded shared accesses (acquire joins,
// release clock snapshots), same-epoch read and write bursts, volatile
// publication, and fork/join. The shape mirrors what the workload suite
// produces without paying for the virtual runtime, so the numbers isolate
// the detector itself.
func raceBenchTrace(nThreads, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	b.On(0).Begin()
	for t := 1; t < nThreads; t++ {
		b.On(0).Fork(trace.TID(t))
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < rounds; i++ {
		for t := 0; t < nThreads; t++ {
			tid := trace.TID(t)
			b.On(tid).Acq(0)
			b.Read(100).Write(100) // shared, guarded
			b.Rel(0)
			// Thread-local same-epoch burst: repeated accesses with no
			// intervening synchronization stay in one epoch.
			for k := 0; k < 4; k++ {
				b.Read(uint64(t)).Write(uint64(t))
			}
			if i%8 == 0 {
				b.VolWrite(200).VolRead(200)
			}
		}
	}
	for t := nThreads - 1; t >= 1; t-- {
		b.On(trace.TID(t)).End()
		b.On(0).Join(trace.TID(t))
	}
	b.On(0).End()
	return b.Trace()
}

// raceBenchTraceRacy drops the lock so the shared variable races: the
// report/dedup path and the racy-variable set run on every round.
func raceBenchTraceRacy(nThreads, rounds int) *trace.Trace {
	b := trace.NewBuilder()
	b.On(0).Begin()
	for t := 1; t < nThreads; t++ {
		b.On(0).Fork(trace.TID(t))
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < rounds; i++ {
		for t := 0; t < nThreads; t++ {
			tid := trace.TID(t)
			b.On(tid).At("racy.go:1").Read(100).At("racy.go:2").Write(100)
			for k := 0; k < 4; k++ {
				b.Read(uint64(t)).Write(uint64(t))
			}
		}
	}
	for t := nThreads - 1; t >= 1; t-- {
		b.On(trace.TID(t)).End()
		b.On(0).Join(trace.TID(t))
	}
	b.On(0).End()
	return b.Trace()
}

// runRaceBench feeds tr through a fresh detector per iteration, its arena
// sized from the trace's length as FeedTrace sizes it, so allocs/op is the
// total allocation cost of analyzing one trace.
func runRaceBench(b *testing.B, tr *trace.Trace) {
	b.Helper()
	b.ReportAllocs()
	events := len(tr.Events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New()
		d.HintEvents(events)
		for _, e := range tr.Events {
			d.Event(e)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRaceEvent is the isolated FastTrack hot-path benchmark: a clean
// (race-free) synchronization-heavy trace.
func BenchmarkRaceEvent(b *testing.B) {
	tr := raceBenchTrace(4, 250) // ~10k events
	runRaceBench(b, tr)
}

// BenchmarkRaceEventRacy stresses the report, dedup, and racy-variable
// paths with an unsynchronized shared variable.
func BenchmarkRaceEventRacy(b *testing.B) {
	tr := raceBenchTraceRacy(4, 250)
	runRaceBench(b, tr)
}
