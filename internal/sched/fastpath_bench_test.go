package sched

import (
	"testing"

	"repro/internal/obs/flight"
)

// runTraceGen measures raw trace-generation throughput (events/s): the
// virtual runtime's cost of producing instrumented events — location
// capture, schedule/trace recording, strategy consultation — with no
// observers attached and no contention, under the paper's canonical
// cooperative strategy. Every event is a scheduling point the strategy
// declines, so every park is elided.
func runTraceGen(b *testing.B) {
	b.Helper()
	opts := func() Options {
		return Options{Strategy: Cooperative{}, RecordTrace: true}
	}
	first, err := Run(counterProgram(4, 400, false), opts())
	if err != nil {
		b.Fatal(err)
	}
	events := first.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(counterProgram(4, 400, false), opts()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceGen is the trace-generation fast path: PC-cached location
// capture and choice-point-elided stepping.
func BenchmarkTraceGen(b *testing.B) { runTraceGen(b) }

// BenchmarkTraceGenFlight is BenchmarkTraceGen with the flight recorder
// enabled: the recorder's cost when it IS on — per-run phase-attribution
// stamps and the Enabled checks taken on their hot branch. Compare against
// BenchmarkTraceGen (recorder off, the <1%-overhead nil-check path) for
// the enabled overhead, which the issue bounds at <5%.
func BenchmarkTraceGenFlight(b *testing.B) {
	flight.Enable(flight.Options{})
	defer flight.Disable()
	runTraceGen(b)
}

// pingPongProgram forces a genuine context switch at every event: two
// workers under round-robin quantum 1, so every emitted event hands the
// baton to the other thread.
func pingPongProgram(n int) *Program {
	p := NewProgram("pingpong")
	v := p.Var("v")
	body := func(t *T) {
		for i := 0; i < n; i++ {
			t.Write(v, int64(i))
		}
	}
	p.SetMain(func(t *T) {
		a := t.Fork("a", body)
		bb := t.Fork("b", body)
		t.Join(a)
		t.Join(bb)
	})
	return p
}

// BenchmarkHandoff measures switch throughput (switches/s) of the one-hop
// thread→thread baton transfer: every event is a genuine scheduling point
// that transfers the baton, so the metric isolates the cost of one
// park/unpark — one channel rendezvous.
func BenchmarkHandoff(b *testing.B) {
	first, err := Run(pingPongProgram(400), Options{Strategy: &RoundRobin{Quantum: 1}})
	if err != nil {
		b.Fatal(err)
	}
	switches := first.Stats.Switches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := Options{Strategy: &RoundRobin{Quantum: 1}}
		if _, err := Run(pingPongProgram(400), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(switches)*float64(b.N)/b.Elapsed().Seconds(), "switches/s")
}
