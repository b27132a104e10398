package core

import (
	"testing"

	"repro/internal/movers"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchTrace builds a synthetic trace exercising the checker's per-event
// hot path: nThreads threads, each running txs lock-guarded transactions of
// several accesses, with method spans and an occasional yield. The shape
// mirrors what the workload suite produces without paying for the virtual
// runtime, so the numbers isolate Checker.Event itself.
func benchTrace(nThreads, txs int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < txs; i++ {
		for t := 0; t < nThreads; t++ {
			b.On(trace.TID(t)).At("bench.go:10").Enter(1)
			b.Acq(0)
			b.At("bench.go:12").Read(uint64(t))
			b.At("bench.go:13").Write(uint64(t))
			b.At("bench.go:14").Read(100) // shared, guarded
			b.At("bench.go:15").Write(100)
			b.Rel(0)
			if i%8 == 0 {
				b.At("bench.go:17").Yield()
			}
			b.Exit(1)
		}
	}
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).End()
	}
	return b.Trace()
}

// benchViolationTrace makes every post-commit access a violation so the
// dedup set is exercised too.
func benchViolationTrace(nThreads, txs int) *trace.Trace {
	b := trace.NewBuilder()
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).Begin()
	}
	for i := 0; i < txs; i++ {
		for t := 0; t < nThreads; t++ {
			b.On(trace.TID(t))
			b.At("bench.go:30").Acq(0)
			b.At("bench.go:31").Rel(0) // commit (left mover)
			b.At("bench.go:32").Acq(1) // right mover post-commit: violation
			b.At("bench.go:33").Rel(1)
		}
	}
	for t := 0; t < nThreads; t++ {
		b.On(trace.TID(t)).End()
	}
	return b.Trace()
}

// runCheckerBench feeds tr through a fresh checker per iteration in
// two-pass mode (no embedded race detector), so allocs/op and time/op
// reflect the cooperability automaton alone.
func runCheckerBench(b *testing.B, tr *trace.Trace, opts Options) {
	b.Helper()
	b.ReportAllocs()
	events := len(tr.Events)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(opts)
		for _, e := range tr.Events {
			c.Event(e)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkCheckerEvent is the isolated hot-path benchmark: clean trace,
// two-pass mode, no violations.
func BenchmarkCheckerEvent(b *testing.B) {
	tr := benchTrace(4, 250) // ~10k events
	runCheckerBench(b, tr, Options{Policy: movers.DefaultPolicy(), KnownRaces: map[uint64]bool{}})
}

// BenchmarkCheckerEventRacy marks the shared variable racy so the non-mover
// commit/violation paths run.
func BenchmarkCheckerEventRacy(b *testing.B) {
	tr := benchTrace(4, 250)
	runCheckerBench(b, tr, Options{Policy: movers.DefaultPolicy(), KnownRaces: map[uint64]bool{100: true}})
}

// BenchmarkCheckerEventViolations stresses report/dedup.
func BenchmarkCheckerEventViolations(b *testing.B) {
	tr := benchViolationTrace(4, 250)
	runCheckerBench(b, tr, Options{Policy: movers.DefaultPolicy(), KnownRaces: map[uint64]bool{}})
}

// BenchmarkCheckerEventOnline includes the embedded FastTrack classifier —
// the full online-mode cost the overhead tables see.
func BenchmarkCheckerEventOnline(b *testing.B) {
	tr := benchTrace(4, 250)
	runCheckerBench(b, tr, Options{Policy: movers.DefaultPolicy()})
}

var twoPassSink int

// BenchmarkTwoPassSchedules times the check an exhaustive search makes on
// every schedule: AnalyzeTwoPass over the traces of certify's search of
// bank-buggy (threads 2, size 1, bound 2), recorded once outside the
// timer. events/s counts the checked traces' events.
func BenchmarkTwoPassSchedules(b *testing.B) {
	spec, ok := workloads.Get("bank-buggy")
	if !ok {
		b.Fatal("workload bank-buggy not registered")
	}
	var traces []*trace.Trace
	events := 0
	_, err := sched.Explore(spec.New(2, 1), sched.ExploreOptions{
		MaxRuns:        20000,
		MaxPreemptions: 2,
		RecordTrace:    true,
		Visit: func(res *sched.Result, err error) bool {
			if err == nil {
				traces = append(traces, res.Trace)
				events += res.Trace.Len()
			}
			return true
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Policy: movers.DefaultPolicy()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			twoPassSink += len(AnalyzeTwoPass(tr, opts).Violations())
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
