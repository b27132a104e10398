package sched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// batchRecorder is an Observer that records everything it sees, so tests
// can assert the delivery contract.
type batchRecorder struct {
	events     []trace.Event
	batchSizes []int
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

// checkBatches requires that batches, the sizes of the batches an observer
// was handed, are whole DefaultBatchSize batches but for a shorter, non-empty
// last one, and that they add up to events.
func checkBatches(t *testing.T, batches []int, events int, label string) {
	t.Helper()
	sum := 0
	for i, n := range batches {
		if i < len(batches)-1 && n != DefaultBatchSize || n == 0 || n > DefaultBatchSize {
			t.Fatalf("%s: batch %d of %d has %d events", label, i, len(batches), n)
		}
		sum += n
	}
	if sum != events {
		t.Fatalf("%s: batches %v hold %d events, want %d", label, batches, sum, events)
	}
}

// TestBatchDeliveryMatchesPerEvent is the core contract: an observer sees
// exactly the recorded trace, in order, split across full batches plus a
// shorter final one, and an analysis fed those batches ends where one fed
// the trace event by event does.
func TestBatchDeliveryMatchesPerEvent(t *testing.T) {
	br, batched := &batchRecorder{}, &CountObserver{}
	res, err := Run(counterProgram(4, 300, true), Options{
		Strategy:    &RoundRobin{Quantum: 3},
		RecordTrace: true,
		Observers:   []Observer{br, batched},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events <= DefaultBatchSize {
		t.Fatalf("%d events, want more than one batch", res.Events)
	}
	sameEvents(t, br.events, res.Trace.Events, "batched")
	checkBatches(t, br.batchSizes, res.Events, "batched")
	var perEvent CountObserver
	for _, e := range res.Trace.Events {
		perEvent.Event(e)
	}
	if *batched != perEvent {
		t.Fatalf("batched counts %+v, per-event counts %+v", *batched, perEvent)
	}
}

// TestBatchFinalFlushPartial: in a run shorter than one chunk, the
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
// observers still receive exactly the events recorded before the abort —
// the same prefix the trace holds — whether the abort falls inside a chunk
// or right after one filled, which must then not be delivered again.
func TestBatchAbortDeliversPrefix(t *testing.T) {
	for _, budget := range []int{100, DefaultBatchSize + 100, 2 * DefaultBatchSize} {
		br := &batchRecorder{}
		res, err := Run(counterProgram(4, 2000, false), Options{
			Strategy:    &RoundRobin{Quantum: 1},
			RecordTrace: true,
			MaxEvents:   budget,
			Observers:   []Observer{br},
		})
		if err == nil || !strings.Contains(err.Error(), "event budget") {
			t.Fatalf("budget %d: err = %v, want an event-budget error", budget, err)
		}
		label := fmt.Sprintf("budget %d", budget)
		sameEvents(t, br.events, res.Trace.Events, label)
		if len(br.events) != budget {
			t.Fatalf("%s: observer saw %d events before the abort, want %d", label, len(br.events), budget)
		}
		checkBatches(t, br.batchSizes, budget, label)
	}
}

// TestBatchObserverPanicMidRun: a panic inside the flush of a full chunk
// runs on the emitting thread's goroutine and is isolated like any
// observer panic — the run aborts with an error, no hang, no goroutine
// leak — and the final flush does not deliver that chunk again.
func TestBatchObserverPanicMidRun(t *testing.T) {
	br := &batchRecorder{panicAt: DefaultBatchSize}
	_, err := Run(counterProgram(4, 500, true), Options{
		Strategy:  &RoundRobin{Quantum: 2},
		Observers: []Observer{br},
	})
	if err == nil {
		t.Fatal("expected panic-induced error")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("error does not carry the panic value: %v", err)
	}
	if strings.Contains(err.Error(), "final flush") {
		t.Fatalf("panic fired in the final flush, want a mid-run flush: %v", err)
	}
	if len(br.batchSizes) != 1 || br.batchSizes[0] != DefaultBatchSize {
		t.Fatalf("batches %v, want one full chunk", br.batchSizes)
	}
}

// TestBatchObserverPanicFinalFlush: in a run shorter than one chunk,
// the panic fires in the end-of-run flush on run's caller and
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

// TestFeedTrace: the offline fan-out delivers a recorded trace once to
// every observer as zero-copy windows of DefaultBatchSize events.
func TestFeedTrace(t *testing.T) {
	res, err := Run(longCounter(), Options{Strategy: &RoundRobin{Quantum: 2}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	br, other := &batchRecorder{}, &batchRecorder{}
	FeedTrace(tr, br, other)
	sameEvents(t, br.events, tr.Events, "FeedTrace")
	sameEvents(t, other.events, tr.Events, "FeedTrace second observer")
	checkBatches(t, br.batchSizes, tr.Len(), "FeedTrace")
}
