package sched

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// schedulePanicObserver crashes on schedules that run the forked thread
// early: it panics upon seeing the second T1 event while fewer than three
// T0 events have been observed. The decision depends only on the event
// stream, so it is a deterministic function of the schedule — exactly the
// kind of input-dependent checker crash the explorer must isolate.
// These runs are shorter than the default batch, so the panic fires in the
// final flush on the scheduler goroutine; the tests below pin that it is
// still reported as a panic.
type schedulePanicObserver struct {
	t0, t1 int
}

func (o *schedulePanicObserver) ObserveBatch(batch []trace.Event) {
	for _, e := range batch {
		switch e.Tid {
		case 0:
			o.t0++
		case 1:
			o.t1++
			if o.t1 == 2 && o.t0 < 3 {
				panic("observer crashed on this schedule")
			}
		}
	}
}

// TestExplorePanickingObserver: a crashing schedule surfaces as an
// *ExploreError finding, in the same visit slot on every search, and the
// search still completes.
func TestExplorePanickingObserver(t *testing.T) {
	run := func() ([]string, *ExploreReport) {
		var log []string
		rep, err := Explore(incrementers(), ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
			Observers:      func() []Observer { return []Observer{&schedulePanicObserver{}} },
			Visit: func(res *Result, err error) bool {
				if err != nil {
					log = append(log, "err:"+err.Error())
				} else {
					log = append(log, "ok")
				}
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return log, rep
	}
	log, rep := run()
	if rep.Panics == 0 {
		t.Fatal("no schedule triggered the observer panic; the fixture is broken")
	}
	if rep.Panics >= rep.Runs {
		t.Fatalf("every run panicked (%d of %d); fixture should mix crashing and clean schedules",
			rep.Panics, rep.Runs)
	}
	if rep.Status != StatusPanic {
		t.Fatalf("status = %s, want %s for a completed search with panics", rep.Status, StatusPanic)
	}
	again, rep2 := run()
	if *rep2 != *rep {
		t.Fatalf("second search: report %+v != first %+v", rep2, rep)
	}
	for i := range log {
		if again[i] != log[i] {
			t.Fatalf("visit %d differs between searches:\n  first  %s\n  second %s", i, log[i], again[i])
		}
	}
}

// TestExplorePanicErrorShape: the error handed to Visit for a crashed
// replay carries the reproducing prefix and a captured stack.
func TestExplorePanicErrorShape(t *testing.T) {
	var got *ExploreError
	_, err := Explore(incrementers(), ExploreOptions{
		MaxRuns:        4000,
		MaxPreemptions: 2,
		Observers:      func() []Observer { return []Observer{&schedulePanicObserver{}} },
		Visit: func(res *Result, err error) bool {
			if pe, ok := err.(*ExploreError); ok && got == nil { //nolint:errorlint
				got = pe
			}
			return got == nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no *ExploreError reached Visit")
	}
	if len(got.Stack) == 0 {
		t.Error("ExploreError.Stack is empty")
	}
	if !strings.Contains(got.Error(), "observer crashed") {
		t.Errorf("Error() = %q, want the panic value in it", got.Error())
	}
	// The prefix must reproduce the crash deterministically.
	r := newReplayer()
	_, _, rerr := r.replayPrefix(incrementers(), &ExploreOptions{
		Observers: func() []Observer { return []Observer{&schedulePanicObserver{}} },
	}, nil, got.Prefix)
	r.rt.close()
	if _, ok := rerr.(*ExploreError); !ok { //nolint:errorlint
		t.Fatalf("replaying the crash prefix gave %v, want *ExploreError", rerr)
	}
}

// TestExploreObserverFactoryPanic: a panic in the observer factory, which
// runs before the virtual program starts, is a finding too.
func TestExploreObserverFactoryPanic(t *testing.T) {
	rep, err := Explore(incrementers(), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 2,
		Observers:      func() []Observer { panic("factory exploded") },
		Visit: func(res *Result, err error) bool {
			if _, ok := err.(*ExploreError); !ok { //nolint:errorlint
				t.Errorf("visit err = %v, want *ExploreError", err)
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 || rep.Panics != 1 {
		t.Fatalf("report %+v, want 1 run, 1 panic", rep)
	}
	if rep.Status != StatusPanic {
		t.Fatalf("status = %s, want %s", rep.Status, StatusPanic)
	}
}

// TestExploreMaxStatesPrefix: a state-budget cutoff visits exactly a
// prefix of the full search's visit sequence, the partial-result
// determinism property.
func TestExploreMaxStatesPrefix(t *testing.T) {
	base := ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2}
	fullLog, fullRuns := visitLog(t, Explore, incrementers, base)
	if fullRuns < 4 {
		t.Fatalf("fixture explores only %d runs", fullRuns)
	}
	// Enough states for a few runs but nowhere near all of them.
	var budget int64 = 40
	opts := base
	opts.Budget = Budget{MaxStates: budget}
	log, runs := visitLog(t, Explore, incrementers, opts)
	// visitLog fatals on an infrastructure error; re-run the report checks
	// through a direct call to keep the report visible.
	opts.Visit = func(*Result, error) bool { return true }
	rep, err := Explore(incrementers(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusBudget {
		t.Fatalf("status = %s, want %s", rep.Status, StatusBudget)
	}
	if runs != rep.Runs {
		t.Fatalf("visitLog runs %d vs report %d (replays are not deterministic?)", runs, rep.Runs)
	}
	if rep.Runs == 0 || rep.Runs >= fullRuns {
		t.Fatalf("%d runs under budget, full search has %d", rep.Runs, fullRuns)
	}
	if rep.Abandoned == 0 {
		t.Fatal("cutoff left Abandoned = 0")
	}
	if rep.States < budget {
		t.Fatalf("stopped at %d states before the %d budget", rep.States, budget)
	}
	for i := range log {
		if log[i] != fullLog[i] {
			t.Fatalf("budgeted visit %d is not the full search's prefix", i)
		}
	}
}

// TestExplorePreCancelledContext: a context cancelled before the search
// starts visits nothing and abandons the whole frontier.
func TestExplorePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Explore(incrementers(), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 2,
		Budget:         Budget{Ctx: ctx},
		Visit: func(*Result, error) bool {
			t.Error("Visit called under a pre-cancelled context")
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 0 || rep.Status != StatusCancelled || rep.Abandoned == 0 {
		t.Fatalf("report %+v, want 0 runs, cancelled, abandoned > 0", rep)
	}
}

// TestExploreCancelDuringVisit: cancellation raised by the Visit callback
// itself lands on the very next check, so the visit count is exact.
func TestExploreCancelDuringVisit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visits := 0
	rep, err := Explore(incrementers(), ExploreOptions{
		MaxRuns:        4000,
		MaxPreemptions: 2,
		Budget:         Budget{Ctx: ctx},
		Visit: func(*Result, error) bool {
			visits++
			if visits == 3 {
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if visits != 3 || rep.Runs != 3 {
		t.Fatalf("visits=%d runs=%d, want exactly 3", visits, rep.Runs)
	}
	if rep.Status != StatusCancelled {
		t.Fatalf("status = %s, want %s", rep.Status, StatusCancelled)
	}
}

// TestExploreDeadline: a context deadline ends a large search with the
// deadline status rather than an error.
func TestExploreDeadline(t *testing.T) {
	rep, err := Explore(counterProgram(2, 60, true), ExploreOptions{
		MaxRuns:        1_000_000,
		MaxPreemptions: 2,
		Budget:         Budget{Ctx: deadlineCtx(t, time.Millisecond)},
		Visit:          func(*Result, error) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusDeadline {
		t.Fatalf("status = %s, want %s", rep.Status, StatusDeadline)
	}
}

// TestExploreMemBudget: an unmeetable heap budget stops the search at the
// first budget check (the heap always exceeds one byte).
func TestExploreMemBudget(t *testing.T) {
	rep, err := Explore(incrementers(), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 2,
		Budget:         Budget{MemBudget: 1},
		Visit: func(*Result, error) bool {
			t.Error("Visit called under an unmeetable memory budget")
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 0 || rep.Status != StatusBudget {
		t.Fatalf("report %+v, want 0 runs with %s", rep, StatusBudget)
	}
}

// TestExploreMaxRunsStatus: the pre-existing MaxRuns cap now reports itself
// as a budget cutoff with the abandoned frontier counted.
func TestExploreMaxRunsStatus(t *testing.T) {
	rep, err := Explore(incrementers(), ExploreOptions{
		MaxRuns:        3,
		MaxPreemptions: 2,
		Visit:          func(*Result, error) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 3 || rep.Status != StatusBudget || rep.Abandoned == 0 {
		t.Fatalf("report %+v, want 3 runs, %s, abandoned > 0", rep, StatusBudget)
	}
}

// deadlineCtx returns a context whose deadline is d from now, cancelled
// when t ends.
func deadlineCtx(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestContextStatus pins the error→status mapping.
func TestContextStatus(t *testing.T) {
	if got := ContextStatus(nil); got != StatusComplete {
		t.Errorf("nil → %s", got)
	}
	if got := ContextStatus(context.DeadlineExceeded); got != StatusDeadline {
		t.Errorf("DeadlineExceeded → %s", got)
	}
	if got := ContextStatus(context.Canceled); got != StatusCancelled {
		t.Errorf("Canceled → %s", got)
	}
}
