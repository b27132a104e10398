package flight

import (
	"testing"

	"repro/internal/obs"
)

// The counting side of Meter — <metric>.count/.ns in obs.Default — is
// pinned by internal/obs's timer tests.

// TestMeterSpans: on a track, a metered span is also an ordinary flight
// span — named, categorized, parented, with its begin and end args — and
// a plain span of the same name never touches the meter's counters.
func TestMeterSpans(t *testing.T) {
	m := NewMeter(CatCLI, "battery", "test.meter.spans")
	count := obs.Default.Counter("test.meter.spans.count")
	c0 := count.Load()
	r := New(Options{})
	tr := r.Track("battery")
	top := tr.Begin(CatCLI, "top", 0)
	s := m.Begin(tr, top.ID(), A("seeds", 2))
	s.EndStr("complete", A("runs", 5))
	top.End()
	if n := count.Load() - c0; n != 1 {
		t.Fatalf("count rose by %d, want 1", n)
	}
	evs := r.Snapshot().Tracks[0].Events
	if len(evs) != 4 {
		t.Fatalf("recorded %d events, want 4", len(evs))
	}
	b, e := evs[1], evs[2]
	if b.Kind != KindBegin || b.Name != "battery" || b.Cat != CatCLI || b.Parent != top.ID() || b.Args[0] != A("seeds", 2) {
		t.Fatalf("begin = %+v", b)
	}
	if e.Kind != KindEnd || e.ID != b.ID || e.Str != "complete" || e.Args[0] != A("runs", 5) {
		t.Fatalf("end = %+v", e)
	}
	tr.Begin(CatCLI, "battery", 0).End()
	if n := count.Load() - c0; n != 1 {
		t.Fatalf("count rose by %d after an unmetered span, want 1", n)
	}
}
