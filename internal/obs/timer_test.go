package obs_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// A timed phase is a flight.Meter span: every span that ends adds one
// completion to <metric>.count and its wall time to <metric>.ns in
// obs.Default, whether or not a recording is on, so phases surface in
// snapshots with no extra encoding machinery. These tests pin that
// contract from the registry's side with the recorder off (a nil track);
// package flight tests the span-recording side.

// counted returns what fn adds to metric's .count/.ns pair in obs.Default.
func counted(metric string, fn func()) (count, ns int64) {
	c, n := obs.Default.Counter(metric+".count"), obs.Default.Counter(metric+".ns")
	c0, n0 := c.Load(), n.Load()
	fn()
	return c.Load() - c0, n.Load() - n0
}

// TestTimer times one 1ms phase.
func TestTimer(t *testing.T) {
	m := flight.NewMeter(flight.CatHarness, "phase", "test.timer")
	n, ns := counted("test.timer", func() {
		s := m.Begin(nil, 0)
		time.Sleep(time.Millisecond)
		s.End()
	})
	if n != 1 || ns < int64(time.Millisecond) {
		t.Fatalf("count=%d ns=%d after one 1ms span, want 1 and >= 1ms", n, ns)
	}
}

// TestTimerCounters checks the encoding contract: each ended span adds one
// completion to <metric>.count and its elapsed nanoseconds, no more than
// the wall time around it, to <metric>.ns; EndStr counts like End.
func TestTimerCounters(t *testing.T) {
	m := flight.NewMeter(flight.CatHarness, "phase", "test.timer.counters")
	var outer time.Duration
	n, ns := counted("test.timer.counters", func() {
		t0 := time.Now()
		s := m.Begin(nil, 0, flight.A("events", 3))
		time.Sleep(time.Millisecond)
		s.End()
		outer = time.Since(t0)
	})
	if n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	if ns < int64(time.Millisecond) || ns > int64(outer) {
		t.Fatalf("ns = %d, want in [1ms, %d]", ns, outer)
	}
	if n, ns := counted("test.timer.counters", func() { m.Begin(nil, 0).EndStr("done") }); n != 1 || ns < 0 {
		t.Fatalf("EndStr added count=%d ns=%d, want 1 and >= 0", n, ns)
	}
}

// TestTimerAccumulates checks that repeated spans sum into the same
// counters and that meters naming one metric share its counters.
func TestTimerAccumulates(t *testing.T) {
	a := flight.NewMeter(flight.CatHarness, "phase", "test.timer.work")
	b := flight.NewMeter(flight.CatCLI, "battery", "test.timer.work")
	n, ns := counted("test.timer.work", func() {
		for i := 0; i < 3; i++ {
			a.Begin(nil, 0).End()
		}
		b.Begin(nil, 0).End()
	})
	if n != 4 {
		t.Fatalf("count = %d, want 4 (two meters, one metric)", n)
	}
	if ns < 0 {
		t.Fatalf("ns = %d went negative", ns)
	}
}

// TestTimerConcurrent ends overlapping spans from many goroutines; the
// counters are atomics, so the count must be exact.
func TestTimerConcurrent(t *testing.T) {
	m := flight.NewMeter(flight.CatPool, "task", "test.timer.par")
	const workers, per = 8, 100
	n, _ := counted("test.timer.par", func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					m.Begin(nil, 0).End()
				}
			}()
		}
		wg.Wait()
	})
	if n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
}

// TestTimerInSnapshot checks timed phases surface in a registry snapshot
// under the documented names.
func TestTimerInSnapshot(t *testing.T) {
	flight.NewMeter(flight.CatHarness, "phase", "test.timer.snap").Begin(nil, 0).End()
	snap := obs.Default.Snapshot()
	for _, k := range []string{"test.timer.snap.count", "test.timer.snap.ns"} {
		if _, ok := snap.Counters[k]; !ok {
			t.Fatalf("%s missing from snapshot", k)
		}
	}
}
