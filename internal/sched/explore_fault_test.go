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
// kind of input-dependent checker crash the explorer must isolate — and
// it behaves identically no matter which worker replays the schedule.
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

// TestExplorePanickingObserver is the regression test for the parallel
// engine's fault isolation: before replayTask closed t.done on panic, a
// crashing observer under Parallel > 1 left the driver blocked forever.
// Now a crashing schedule must surface as an *ExploreError finding, in the
// same visit slot at any worker count, with the search still completing.
func TestExplorePanickingObserver(t *testing.T) {
	run := func(workers int) ([]string, *ExploreReport) {
		var log []string
		rep, err := Explore(incrementers(), ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
			Parallel:       workers,
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
	seqLog, seqRep := run(1)
	if seqRep.Panics == 0 {
		t.Fatal("no schedule triggered the observer panic; the fixture is broken")
	}
	if seqRep.Panics >= seqRep.Runs {
		t.Fatalf("every run panicked (%d of %d); fixture should mix crashing and clean schedules",
			seqRep.Panics, seqRep.Runs)
	}
	if seqRep.Status != StatusPanic {
		t.Fatalf("status = %s, want %s for a completed search with panics", seqRep.Status, StatusPanic)
	}
	for _, workers := range []int{2, 4} {
		parLog, parRep := run(workers)
		if parRep.Runs != seqRep.Runs || parRep.Panics != seqRep.Panics || parRep.Status != seqRep.Status {
			t.Fatalf("parallel=%d: report %+v != sequential %+v", workers, parRep, seqRep)
		}
		for i := range seqLog {
			if parLog[i] != seqLog[i] {
				t.Fatalf("parallel=%d: visit %d differs:\n  seq %s\n  par %s", workers, i, seqLog[i], parLog[i])
			}
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
	pool := newThreadPool()
	_, _, rerr := replayPrefix(incrementers(), &ExploreOptions{
		Observers: func() []Observer { return []Observer{&schedulePanicObserver{}} },
	}, pool, nil, got.Prefix)
	pool.close()
	if _, ok := rerr.(*ExploreError); !ok { //nolint:errorlint
		t.Fatalf("replaying the crash prefix gave %v, want *ExploreError", rerr)
	}
}

// TestExploreObserverFactoryPanic: a panic on the worker side of a replay
// (the factory runs before the virtual program starts) used to escape
// replayTask without closing t.done, deadlocking the parallel driver.
func TestExploreObserverFactoryPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep, err := Explore(incrementers(), ExploreOptions{
			MaxRuns:        100,
			MaxPreemptions: 2,
			Parallel:       workers,
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
			t.Fatalf("parallel=%d: report %+v, want 1 run, 1 panic", workers, rep)
		}
		if rep.Status != StatusPanic {
			t.Fatalf("parallel=%d: status = %s, want %s", workers, rep.Status, StatusPanic)
		}
	}
}

// TestExploreMaxStatesPrefix: a state-budget cutoff yields exactly a prefix
// of the sequential visit sequence at any worker count — the tentpole
// partial-result determinism property.
func TestExploreMaxStatesPrefix(t *testing.T) {
	base := ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2}
	fullLog, fullRuns := visitLog(t, incrementers, base)
	if fullRuns < 4 {
		t.Fatalf("fixture explores only %d runs", fullRuns)
	}
	// Enough states for a few runs but nowhere near all of them.
	var budget int64 = 40
	var want []string
	for _, workers := range []int{1, 2, 4} {
		opts := base
		opts.Parallel = workers
		opts.Budget = Budget{MaxStates: budget}
		log, runs := visitLog(t, incrementers, opts)
		// visitLog fatals on an infrastructure error; re-run the report
		// checks through a direct call to keep the report visible.
		rep, err := Explore(incrementers(), func() ExploreOptions {
			o := opts
			o.Visit = func(*Result, error) bool { return true }
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != StatusBudget {
			t.Fatalf("parallel=%d: status = %s, want %s", workers, rep.Status, StatusBudget)
		}
		if runs != rep.Runs {
			t.Fatalf("parallel=%d: visitLog runs %d vs report %d (replays are not deterministic?)", workers, runs, rep.Runs)
		}
		if rep.Runs == 0 || rep.Runs >= fullRuns {
			t.Fatalf("parallel=%d: %d runs under budget, full search has %d", workers, rep.Runs, fullRuns)
		}
		if rep.Abandoned == 0 {
			t.Fatalf("parallel=%d: cutoff left Abandoned = 0", workers)
		}
		if rep.States < budget {
			t.Fatalf("parallel=%d: stopped at %d states before the %d budget", workers, rep.States, budget)
		}
		if workers == 1 {
			want = log
			// The budgeted sequential log must be an exact prefix of the
			// unbudgeted search's visit sequence.
			for i := range want {
				if want[i] != fullLog[i] {
					t.Fatalf("budgeted visit %d is not the full search's prefix", i)
				}
			}
			continue
		}
		if len(log) != len(want) {
			t.Fatalf("parallel=%d: %d visits vs sequential %d", workers, len(log), len(want))
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("parallel=%d: visit %d differs under cutoff", workers, i)
			}
		}
	}
}

// TestExplorePreCancelledContext: a context cancelled before the search
// starts visits nothing and abandons the whole frontier.
func TestExplorePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		rep, err := Explore(incrementers(), ExploreOptions{
			MaxRuns:        100,
			MaxPreemptions: 2,
			Parallel:       workers,
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
			t.Fatalf("parallel=%d: report %+v, want 0 runs, cancelled, abandoned > 0", workers, rep)
		}
	}
}

// TestExploreCancelDuringVisit: cancellation raised by the Visit callback
// itself lands on the very next driver check, so the visit count is
// deterministic at any worker count even though workers may be mid-replay.
func TestExploreCancelDuringVisit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		visits := 0
		rep, err := Explore(incrementers(), ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
			Parallel:       workers,
			Budget:         Budget{Ctx: ctx},
			Visit: func(*Result, error) bool {
				visits++
				if visits == 3 {
					cancel()
				}
				return true
			},
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if visits != 3 || rep.Runs != 3 {
			t.Fatalf("parallel=%d: visits=%d runs=%d, want exactly 3", workers, visits, rep.Runs)
		}
		if rep.Status != StatusCancelled {
			t.Fatalf("parallel=%d: status = %s, want %s", workers, rep.Status, StatusCancelled)
		}
	}
}

// TestExploreDeadline: a wall-clock budget ends a large search with the
// deadline status rather than an error.
func TestExploreDeadline(t *testing.T) {
	rep, err := Explore(counterProgram(2, 60, true), ExploreOptions{
		MaxRuns:        1_000_000,
		MaxPreemptions: 2,
		Budget:         Budget{Timeout: time.Millisecond},
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
// first driver check (the heap always exceeds one byte).
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
