package sched

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// earlyForkPanics is incrementers with a forked thread that crashes on
// the schedules that run it early: it panics where its second event, the
// read after its begin, would come before main's third (begin, fork,
// read). main notes its read in plain Go state just before making it,
// with no scheduling point between, and one virtual thread runs at a
// time, so the crash is a deterministic function of the schedule —
// exactly the kind of input-dependent crash the explorer must isolate.
func earlyForkPanics() *Program {
	p := NewProgram("early-fork-panics")
	x := p.Var("x")
	var mainRead bool
	p.SetMain(func(t *T) {
		mainRead = false
		h := t.Fork("w", func(t *T) {
			if !mainRead {
				panic("w ran before main's read")
			}
			v := t.Read(x)
			t.Write(x, v+1)
		})
		mainRead = true
		v := t.Read(x)
		t.Write(x, v+1)
		t.Join(h)
	})
	return p
}

// TestExplorePanickingObserver: a crashing schedule surfaces as an
// *ExploreError finding, in the same visit slot on every search, and the
// search still completes. The name is kept from when the crash was a
// per-replay observer's; earlyForkPanics crashes on the schedules it did.
func TestExplorePanickingObserver(t *testing.T) {
	run := func() ([]string, *ExploreReport) {
		var log []string
		rep, err := Explore(earlyForkPanics(), ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
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
		t.Fatal("no schedule triggered the thread's panic; the fixture is broken")
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
	_, err := Explore(earlyForkPanics(), ExploreOptions{
		MaxRuns:        4000,
		MaxPreemptions: 2,
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
	if !strings.Contains(got.Error(), "ran before main's read") {
		t.Errorf("Error() = %q, want the panic value in it", got.Error())
	}
	// The prefix must reproduce the crash deterministically.
	r := newReplayer()
	_, rerr := r.replayPrefix(earlyForkPanics(), &ExploreOptions{}, nil, frontier{prefix: got.Prefix})
	r.rt.close()
	if _, ok := rerr.(*ExploreError); !ok { //nolint:errorlint
		t.Fatalf("replaying the crash prefix gave %v, want *ExploreError", rerr)
	}
}

// TestExplorePanicOutsideThreads reaches replayPrefix's own recover, which
// catches a panic on Runtime.run's caller outside every virtual thread,
// where the runtime's recover does not reach. A program that declares a
// channel with no chanCaps entry makes Runtime.reset panic: Visit deletes
// the entry after the first run, which has started the thread goroutines,
// and puts it back once the second run's panic has reached it. The panic
// must become an *ExploreError carrying the run's prefix and a stack
// through reset, counted in ExploreReport.Panics, and the search ends with
// StatusPanic instead of StatusComplete. Its run recorded no
// decision, so the search expands nothing from it and goes on with the
// rest of its stack: it visits the unbroken search's runs minus the second
// run's subtree, whose prefixes all extend the second run's, and each with
// the same result. No goroutine leaks, and inside Visit the process holds
// one goroutine per thread record but main's throughout.
func TestExplorePanicOutsideThreads(t *testing.T) {
	build := func() *Program {
		p := incrementers()
		p.Chan("c", 0)
		return p
	}
	// run is one visited replay: its prefix and its result's event count,
	// -1 for a run with no result.
	type run struct {
		prefix []trace.TID
		events int
	}
	search := func(p *Program, visit func(*Result, error) bool) (*ExploreReport, []run) {
		var runs []run
		events := 0
		opts := ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2, Visit: func(res *Result, err error) bool {
			events = -1
			if res != nil {
				events = res.Events
			}
			return visit(res, err)
		}}
		rep, err := exploreDFS(p, &opts, "explore", func(f frontier, _ *Result, g *Guided, push func(frontier), _ *flight.Track) {
			runs = append(runs, run{slices.Clone(f.prefix), events})
			expandPrefixes(g, f.pre, opts.MaxPreemptions, push)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, runs
	}
	_, want := search(build(), func(*Result, error) bool { return true })
	if len(want) < 3 {
		t.Fatalf("the search runs %d schedules; the test needs three", len(want))
	}

	requireNoGoroutineLeak(t, func(base int) {
		p := build()
		caps := p.chanCaps
		var got *ExploreError
		visits := 0
		rep, runs := search(p, countThreadGoroutines(t, base, func(res *Result, err error) bool {
			switch visits++; visits {
			case 1:
				p.chanCaps = nil
			case 2:
				p.chanCaps = caps
				got, _ = err.(*ExploreError) //nolint:errorlint // replayPrefix returns it unwrapped
				if res != nil || got == nil {
					t.Errorf("second run: result %v, error %v; want no result and an *ExploreError", res, err)
				}
			}
			return true
		}))
		if t.Failed() {
			return
		}
		if !slices.Equal(got.Prefix, want[1].prefix) {
			t.Errorf("ExploreError.Prefix = %v, want the second run's %v", got.Prefix, want[1].prefix)
		}
		if !strings.Contains(fmt.Sprint(got.Panic), "index out of range") || !strings.Contains(string(got.Stack), "(*Runtime).reset") {
			t.Errorf("panic %v with stack\n%s\nwant an index panic in Runtime.reset", got.Panic, got.Stack)
		}
		if rep.Panics != 1 || rep.Runs != len(runs) || rep.Status != StatusPanic {
			t.Errorf("report %+v after %d visits; want one panic, a run per visit, status %s", rep, len(runs), StatusPanic)
		}
		var rest []run
		for i, r := range want {
			if i == 1 {
				r.events = -1
			} else if len(r.prefix) > len(want[1].prefix) && slices.Equal(r.prefix[:len(want[1].prefix)], want[1].prefix) {
				continue
			}
			rest = append(rest, r)
		}
		if len(rest) == len(want) {
			t.Fatal("the second run has no subtree to skip")
		}
		if !reflect.DeepEqual(runs, rest) {
			t.Errorf("the search visited %v, want %v", runs, rest)
		}
	})
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

// sendAfterClose is a program whose main sends on a channel it has
// closed, with three deferred writes to v, while a forked thread writes w
// twice: the send fails the run inside an op, and main's defers emit
// while it unwinds.
func sendAfterClose() *Program {
	p := NewProgram("send-after-close")
	v, w := p.Var("v"), p.Var("w")
	c := p.Chan("c", 1)
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {
			t.Write(w, 1)
			t.Write(w, 2)
		})
		func() {
			defer t.Write(v, 3)
			defer t.Write(v, 2)
			defer t.Write(v, 1)
			t.Close(c)
			t.Send(c, 1)
		}()
		t.Join(h)
	})
	return p
}

// TestFailedOpEndsRunAtNextEvent: once an op fails the run, the failing
// thread's next event ends it, whatever the strategy answers, so the
// run's trace holds exactly one of the deferred writes and a replay of its
// threads reproduces it. Guided, which settles a spent run's forced
// decisions without a handoff, must end the run there as it did when every
// decision reached Pick; both explorers' runs are checked too.
func TestFailedOpEndsRunAtNextEvent(t *testing.T) {
	check := func(label string, res *Result, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "sends on closed channel") {
			t.Fatalf("%s: err = %v, want the failed send", label, err)
		}
		deferred := 0
		for _, e := range res.Trace.Events {
			if e.Tid == 0 && e.Op == trace.OpWrite {
				deferred++
			}
		}
		if deferred != 1 {
			t.Errorf("%s: %d deferred writes recorded, want 1: %v", label, deferred, tidsOf(res.Trace))
		}
		again, _ := Run(sendAfterClose(), Options{Strategy: NewReplay(tidsOf(res.Trace)), RecordTrace: true})
		if !slices.Equal(again.Trace.Events, res.Trace.Events) {
			t.Errorf("%s: the replay's trace %v differs from %v", label, tidsOf(again.Trace), tidsOf(res.Trace))
		}
	}
	strategies := []struct {
		label string
		s     Strategy
	}{
		{"cooperative", Cooperative{}}, {"roundrobin", &RoundRobin{Quantum: 5}}, {"random", NewRandom(1)},
		{"guided", &Guided{}}, {"guided/spent", &Guided{spent: true}},
	}
	for _, st := range strategies {
		res, err := Run(sendAfterClose(), Options{Strategy: st.s, RecordTrace: true})
		check(st.label, res, err)
	}
	for _, ex := range explorers {
		for bound := 0; bound <= 2; bound++ {
			if _, err := ex.explore(sendAfterClose(), ExploreOptions{
				MaxPreemptions: bound,
				RecordTrace:    true,
				Visit: func(res *Result, err error) bool {
					check(fmt.Sprintf("%s/bound=%d", ex.name, bound), res, err)
					return true
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
