package sched

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// batchRecorder implements Observer plus the StringsAware/EventsHinted
// hooks, recording everything it sees so tests can assert the delivery
// contract.
type batchRecorder struct {
	events     []trace.Event
	batchSizes []int
	hints      []int // HintEvents values received
	hintLate   bool  // a hint arrived after the first batch
	strings    *trace.Strings
	panicAt    int // panic when this many events have been seen (0 = never)
}

func (r *batchRecorder) ObserveBatch(batch []trace.Event) {
	r.batchSizes = append(r.batchSizes, len(batch))
	// Copy: the runtime owns and reuses the batch buffer.
	r.events = append(r.events, batch...)
	if r.panicAt > 0 && len(r.events) >= r.panicAt {
		panic("batchRecorder: injected failure")
	}
}

func (r *batchRecorder) HintEvents(n int) {
	if len(r.batchSizes) > 0 {
		r.hintLate = true
	}
	r.hints = append(r.hints, n)
}

func (r *batchRecorder) SetStrings(s *trace.Strings) { r.strings = s }

func sameEvents(t *testing.T, got, want []trace.Event, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestBatchDeliveryMatchesPerEvent is the core contract: an observer sees
// exactly the recorded trace, in order, split across full batches plus a
// shorter final one — and batches of one (per-event delivery) see the
// identical sequence as the default size.
func TestBatchDeliveryMatchesPerEvent(t *testing.T) {
	run := func(size int) (*Result, *batchRecorder) {
		br := &batchRecorder{}
		res, err := Run(counterProgram(4, 25, true), Options{
			Strategy:    &RoundRobin{Quantum: 3},
			RecordTrace: true,
			BatchSize:   size,
			Observers:   []Observer{br},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, br
	}
	res, br := run(8)
	sameEvents(t, br.events, res.Trace.Events, "batched")
	one, perEvent := run(1)
	sameEvents(t, perEvent.events, one.Trace.Events, "batches of one")
	sameEvents(t, perEvent.events, br.events, "batches of one vs of eight")
	if len(perEvent.batchSizes) != one.Events {
		t.Fatalf("batch size 1 delivered %d batches for %d events", len(perEvent.batchSizes), one.Events)
	}
	if len(br.batchSizes) < 2 {
		t.Fatalf("expected multiple batches at size 8 over %d events, got %v", res.Events, br.batchSizes)
	}
	for i, n := range br.batchSizes {
		if i < len(br.batchSizes)-1 && n != 8 {
			t.Fatalf("non-final batch %d has size %d, want 8", i, n)
		}
		if n == 0 || n > 8 {
			t.Fatalf("batch %d has size %d, want 1..8", i, n)
		}
	}
	if br.strings == nil {
		t.Fatal("batch observer never received the string table")
	}
}

// TestBatchFinalFlushPartial: with a batch size larger than the run, the
// only delivery is the final flush of a partial buffer.
func TestBatchFinalFlushPartial(t *testing.T) {
	p := counterProgram(2, 3, true)
	br := &batchRecorder{}
	res, err := Run(p, Options{
		Strategy:    Cooperative{},
		RecordTrace: true,
		Observers:   []Observer{br},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.batchSizes) != 1 || br.batchSizes[0] != res.Events {
		t.Fatalf("batches %v, want one final flush of %d events", br.batchSizes, res.Events)
	}
	sameEvents(t, br.events, res.Trace.Events, "final flush")
}

// TestBatchAbortDeliversPrefix: when the run aborts (event budget),
// observers still receive exactly the events emitted before the abort —
// the same prefix the trace holds.
func TestBatchAbortDeliversPrefix(t *testing.T) {
	p := counterProgram(4, 1000, false)
	br := &batchRecorder{}
	res, err := Run(p, Options{
		Strategy:    &RoundRobin{Quantum: 1},
		RecordTrace: true,
		MaxEvents:   100,
		BatchSize:   16,
		Observers:   []Observer{br},
	})
	if err == nil {
		t.Fatal("expected event-budget error")
	}
	if !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("unexpected error: %v", err)
	}
	sameEvents(t, br.events, res.Trace.Events, "batched prefix")
	if len(br.events) != 100 {
		t.Fatalf("observer saw %d events before the abort, want 100", len(br.events))
	}
}

// TestBatchObserverPanicMidRun: a panic inside a full-buffer flush runs on
// the emitting thread's goroutine and is isolated like any observer panic —
// the run aborts with an error, no hang, no goroutine leak.
func TestBatchObserverPanicMidRun(t *testing.T) {
	p := counterProgram(4, 50, true)
	br := &batchRecorder{panicAt: 32}
	_, err := Run(p, Options{
		Strategy:  &RoundRobin{Quantum: 2},
		BatchSize: 16,
		Observers: []Observer{br},
	})
	if err == nil {
		t.Fatal("expected panic-induced error")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error does not carry the panic value: %v", err)
	}
}

// TestBatchObserverPanicFinalFlush: with a batch size larger than the run,
// the panic fires in the end-of-run flush on the scheduler goroutine and
// must come back as the same structured error a thread panic produces
// (stack included), not crash the process.
func TestBatchObserverPanicFinalFlush(t *testing.T) {
	p := counterProgram(2, 5, true)
	br := &batchRecorder{panicAt: 1}
	_, err := Run(p, Options{
		Strategy:  Cooperative{},
		Observers: []Observer{br},
	})
	if err == nil {
		t.Fatal("expected panic-induced error")
	}
	if !strings.Contains(err.Error(), "final flush") || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("unexpected error: %v", err)
	}
	rp, ok := err.(*runPanic) //nolint:errorlint // Run returns it unwrapped
	if !ok {
		t.Fatalf("final-flush panic is %T, want *runPanic", err)
	}
	if !strings.Contains(string(rp.stack), "ObserveBatch") {
		t.Fatalf("captured stack lacks the panicking observer:\n%s", rp.stack)
	}
}

// TestBatchHintBeforeFirstBatch: the presize hint must reach observers
// before any events do.
func TestBatchHintBeforeFirstBatch(t *testing.T) {
	p := counterProgram(4, 100, true)
	br := &batchRecorder{}
	res, err := Run(p, Options{
		Strategy:   &RoundRobin{Quantum: 5},
		EventsHint: 4096,
		BatchSize:  64,
		Observers:  []Observer{br},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.hints) == 0 {
		t.Fatal("observer never received EventsHint")
	}
	if br.hintLate {
		t.Fatal("HintEvents arrived after the first batch")
	}
	if br.hints[0] != 4096 {
		t.Fatalf("hint = %d, want 4096", br.hints[0])
	}
	if len(br.events) != res.Events {
		t.Fatalf("observed %d events, want %d", len(br.events), res.Events)
	}
}

// TestFeedTrace: the offline fan-out delivers a recorded trace once to
// every observer as zero-copy slices, with strings and an exact hint up
// front.
func TestFeedTrace(t *testing.T) {
	p := counterProgram(3, 20, true)
	res, err := Run(p, Options{Strategy: &RoundRobin{Quantum: 2}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	br, other := &batchRecorder{}, &batchRecorder{}
	FeedTrace(tr, 7, br, other)
	sameEvents(t, br.events, tr.Events, "FeedTrace")
	sameEvents(t, other.events, tr.Events, "FeedTrace second observer")
	if br.hintLate || len(br.hints) == 0 || br.hints[0] != tr.Len() {
		t.Fatalf("hints = %v (late=%v), want exact pre-batch hint %d", br.hints, br.hintLate, tr.Len())
	}
	if br.strings != tr.Strings {
		t.Fatal("FeedTrace did not hand the trace's string table to the observer")
	}
	for i, n := range br.batchSizes {
		if i < len(br.batchSizes)-1 && n != 7 {
			t.Fatalf("non-final batch %d has size %d, want 7", i, n)
		}
	}
}
