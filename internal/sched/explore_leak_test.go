package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// requireNoGoroutineLeak runs f, handing it the process goroutine count it
// starts from, and fails if the count has not returned to that baseline
// shortly after: every replayed virtual thread must be gone when the
// search returns, on every exit path.
func requireNoGoroutineLeak(t *testing.T, f func(base int)) {
	t.Helper()
	base := settledGoroutines()
	f(base)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settledGoroutines returns the process goroutine count once it holds
// still: a goroutine that an earlier runtime's close released may not have
// exited yet.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// countThreadGoroutines wraps a search's Visit so that each call first
// checks that the search's runtime keeps one goroutine per thread record
// but main's, whose thread runs on the search's own goroutine: the process
// count must be base plus the largest thread count of the search's runs so
// far, minus one. A goroutine that a context's timer starts may be running
// for a moment, so the check waits a little for the count to settle.
func countThreadGoroutines(t *testing.T, base int, visit func(*Result, error) bool) func(*Result, error) bool {
	threads := 1
	return func(res *Result, err error) bool {
		if res != nil {
			threads = max(threads, res.Threads)
		}
		want := base + threads - 1
		deadline := time.Now().Add(2 * time.Second)
		for got := runtime.NumGoroutine(); got != want; got = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines inside Visit, want %d: baseline %d plus %d thread records but main's",
					got, want, base, threads-1)
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return visit(res, err)
	}
}

// panickyIncrementers panics in the forked thread on the schedules where
// it reads the main thread's write, sometimes while main is still parked.
func panickyIncrementers() *Program {
	p := NewProgram("panicky-incrementers")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {
			if t.Read(x) == 1 {
				panic("w read main's write")
			}
			t.Write(x, 1)
		})
		t.Write(x, 1)
		t.Join(h)
	})
	return p
}

// lockOrderDeadlock takes two locks in opposite orders through nested
// WithLock, so some schedules deadlock with both threads parked inside
// WithLock bodies, and killing the run makes each deferred Release, an op,
// run during the kill.
func lockOrderDeadlock() *Program {
	p := NewProgram("lock-order-deadlock")
	a, b := p.Mutex("a"), p.Mutex("b")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {
			t.WithLock(b, func() { t.WithLock(a, func() { t.Write(x, 1) }) })
		})
		t.WithLock(a, func() { t.WithLock(b, func() { t.Write(x, 2) }) })
		t.Join(h)
	})
	return p
}

// FaultFixtures are programs on some of whose schedules a run ends in a
// thread panic or a deadlock, for the tests in package sched_test.
var FaultFixtures = []struct {
	Name string
	New  func() *Program
}{
	{"panicky-incrementers", panickyIncrementers},
	{"lock-order-deadlock", lockOrderDeadlock},
	{"main-detects-deadlock", mainDetectsDeadlock},
	{"worker-detects-deadlock", workerDetectsDeadlock},
	{"worker-deadlocks-after-main", workerDeadlocksAfterMain},
	{"worker-panics", workerPanics},
	{"main-panics", mainPanics},
}

// The programs of runEndings. Each names the thread that holds the baton
// when the run ends under the cooperative strategy (and each of the fault
// ones is one of FaultFixtures).

// mainEndsLast joins its worker before its own last event.
func mainEndsLast() *Program {
	p := NewProgram("main-ends-last")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Join(t.Fork("w", func(t *T) { t.Write(x, 1) }))
		t.Write(x, 2)
	})
	return p
}

// workerEndsAfterMain never joins its worker, which runs once main has
// returned.
func workerEndsAfterMain() *Program {
	p := NewProgram("worker-ends-after-main")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Fork("w", func(t *T) { t.Write(x, 1) })
		t.Write(x, 2)
	})
	return p
}

// mainDetectsDeadlock blocks main, last, on a lock its joined worker
// returned holding.
func mainDetectsDeadlock() *Program {
	p := NewProgram("main-detects-deadlock")
	m := p.Mutex("m")
	p.SetMain(func(t *T) {
		t.Join(t.Fork("w", func(t *T) { t.Acquire(m) }))
		t.Acquire(m)
	})
	return p
}

// workerDetectsDeadlock blocks its worker, last, on a lock held by main,
// which is blocked joining it.
func workerDetectsDeadlock() *Program {
	p := NewProgram("worker-detects-deadlock")
	m := p.Mutex("m")
	p.SetMain(func(t *T) {
		t.Acquire(m)
		t.Join(t.Fork("w", func(t *T) { t.Acquire(m) }))
	})
	return p
}

// workerDeadlocksAfterMain blocks its worker on a lock main returned
// holding.
func workerDeadlocksAfterMain() *Program {
	p := NewProgram("worker-deadlocks-after-main")
	m := p.Mutex("m")
	p.SetMain(func(t *T) {
		t.Acquire(m)
		t.Fork("w", func(t *T) { t.Acquire(m) })
	})
	return p
}

// workerPanics panics in the worker main is parked joining.
func workerPanics() *Program {
	p := NewProgram("worker-panics")
	p.SetMain(func(t *T) {
		t.Join(t.Fork("w", func(*T) { panic("w failed") }))
	})
	return p
}

// mainPanics panics in main, with its worker spawned but not yet run.
func mainPanics() *Program {
	p := NewProgram("main-panics")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Fork("w", func(t *T) { t.Write(x, 1) })
		panic("main failed")
	})
	return p
}

// longWorker runs 2,000 writes in a worker that main joins, long enough
// for a cancelled context to stop the worker, at its 1,024th event.
func longWorker() *Program {
	p := NewProgram("long-worker")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		t.Join(t.Fork("w", func(t *T) {
			for i := 0; i < 2000; i++ {
				t.Write(x, int64(i))
			}
		}))
	})
	return p
}

// runEndings covers every way a run can end, each case named for the
// thread that holds the baton at the end: a thread exiting with no thread
// left, a thread finding every other one blocked, a panic, a replay
// diverging at the first decision, and a cancelled context. A run is
// under the cooperative strategy unless replay is set, and under a
// cancelled context when cancel is. Its error must match is under
// errors.Is, and its text must be text ("" for no error).
var runEndings = []struct {
	name   string
	prog   func() *Program
	replay []trace.TID
	cancel bool
	is     error
	text   string
}{
	{name: "main-ends-last", prog: mainEndsLast},
	{name: "worker-ends-after-main", prog: workerEndsAfterMain},
	{name: "main-detects-deadlock", prog: mainDetectsDeadlock, is: ErrDeadlock,
		text: "sched: deadlock: no runnable threads; T0(main) blocked on lock m;"},
	{name: "worker-detects-deadlock-main-blocked", prog: workerDetectsDeadlock, is: ErrDeadlock,
		text: "sched: deadlock: no runnable threads; T0(main) blocked joining T1; T1(w) blocked on lock m; waits-for cycle: T0 -> T1 -> T0"},
	{name: "worker-detects-deadlock-after-main", prog: workerDeadlocksAfterMain, is: ErrDeadlock,
		text: "sched: deadlock: no runnable threads; T1(w) blocked on lock m;"},
	{name: "worker-panics-main-parked", prog: workerPanics,
		text: "sched: panic in T1 (w): w failed"},
	{name: "main-panics", prog: mainPanics,
		text: "sched: panic in T0 (main): main failed"},
	{name: "first-decision-diverges", prog: mainEndsLast, replay: []trace.TID{1}, is: ErrReplayDiverged,
		text: "sched: replay diverged from feasible schedule: strategy replay picked T1; runnable [0]"},
	{name: "worker-cancelled-main-blocked", prog: longWorker, cancel: true, is: ErrCancelled,
		text: "sched: run cancelled after 1023 events: context canceled"},
}

// TestRunEndings runs each of runEndings once, checking its error, and
// searches its program with Explore and ExploreDPOR, all the endings of
// its schedules included. After each, no goroutine may be left, and
// inside each search's Visit the search must keep exactly one goroutine
// per thread record but main's.
func TestRunEndings(t *testing.T) {
	for _, c := range runEndings {
		t.Run(c.name+"/run", func(t *testing.T) {
			opts := Options{Strategy: Cooperative{}}
			if c.replay != nil {
				opts.Strategy = NewReplay(c.replay)
			}
			if c.cancel {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				opts.Ctx = ctx
			}
			requireNoGoroutineLeak(t, func(int) {
				_, err := Run(c.prog(), opts)
				text := ""
				if err != nil {
					text = err.Error()
				}
				if text != c.text || (c.is != nil && !errors.Is(err, c.is)) {
					t.Errorf("err = %v, want %q (errors.Is %v)", err, c.text, c.is)
				}
			})
		})
		for _, ex := range explorers {
			t.Run(c.name+"/"+ex.name, func(t *testing.T) {
				requireNoGoroutineLeak(t, func(base int) {
					runs := 0
					_, err := ex.explore(c.prog(), ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
						Visit: countThreadGoroutines(t, base, func(*Result, error) bool { runs++; return true })})
					if err != nil || runs == 0 {
						t.Fatalf("%d runs, err %v", runs, err)
					}
				})
			})
		}
	}
}

// deadlineInsideLocks runs one thread long enough for a 1-ms deadline to
// cancel it inside its WithLock body, while main is parked joining it
// inside a WithLock body of its own.
func deadlineInsideLocks() *Program {
	p := NewProgram("deadline-inside-locks")
	a, b := p.Mutex("a"), p.Mutex("b")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) {
			t.WithLock(b, func() {
				for i := 0; i < 200_000; i++ {
					t.Write(x, int64(i))
				}
			})
		})
		t.WithLock(a, func() { t.Join(h) })
	})
	return p
}

// TestExploreNoGoroutineLeak covers every way a search can end — clean
// completion, early stop, each budget cutoff, cancellation, replay panics,
// including thread panics recovered on thread records' goroutines, and
// runs killed while threads are inside WithLock bodies — under Explore and
// ExploreDPOR, asserting no goroutine outlives the call and that the
// search keeps exactly one goroutine per thread record but main's
// (countThreadGoroutines). The parallel=N subtests run Explore with the
// deprecated ExploreOptions.Parallel set to N, as perfbench still sets it:
// the ignored field must start no worker.
func TestExploreNoGoroutineLeak(t *testing.T) {
	scenarios := []struct {
		name string
		opts func(t *testing.T) ExploreOptions
	}{
		{"complete", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"early-stop", func(*testing.T) ExploreOptions {
			visits := 0
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { visits++; return visits < 3 }}
		}},
		{"max-runs", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 2, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"max-states", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{MaxStates: 30},
				Visit:  func(*Result, error) bool { return true }}
		}},
		{"mem-budget", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{MemBudget: 1},
				Visit:  func(*Result, error) bool { return true }}
		}},
		{"deadline", func(t *testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 1_000_000, MaxPreemptions: 2,
				Budget: Budget{Ctx: deadlineCtx(t, time.Millisecond)},
				Visit:  func(*Result, error) bool { return true }}
		}},
		{"cancel-mid-search", func(*testing.T) ExploreOptions {
			ctx, cancel := context.WithCancel(context.Background())
			visits := 0
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{Ctx: ctx},
				Visit: func(*Result, error) bool {
					visits++
					if visits == 2 {
						cancel()
					}
					return true
				}}
		}},
		// Named for the per-replay observer that once crashed on the
		// schedules on which earlyForkPanics's worker does.
		{"observer-panic", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"thread-panic", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"lock-order-deadlock", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Visit: func(*Result, error) bool { return true }}
		}},
		{"deadline-in-lock", func(t *testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Budget: Budget{Ctx: deadlineCtx(t, time.Millisecond)},
				Visit:  func(*Result, error) bool { return true }}
		}},
	}
	for _, sc := range scenarios {
		prog := incrementers
		switch sc.name {
		case "deadline":
			prog = func() *Program { return counterProgram(2, 60, true) }
		case "thread-panic":
			prog = panickyIncrementers
		case "observer-panic":
			prog = earlyForkPanics
		case "lock-order-deadlock":
			prog = lockOrderDeadlock
		case "deadline-in-lock":
			prog = deadlineInsideLocks
		}
		search := func(t *testing.T, explore func(*Program, ExploreOptions) (*ExploreReport, error), opts ExploreOptions) {
			deadlocks := 0
			visit := opts.Visit
			opts.Visit = func(res *Result, err error) bool {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
				}
				return visit(res, err)
			}
			requireNoGoroutineLeak(t, func(base int) {
				opts.Visit = countThreadGoroutines(t, base, opts.Visit)
				rep, err := explore(prog(), opts)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case (sc.name == "thread-panic" || sc.name == "observer-panic") && rep.Panics == 0:
					t.Fatal("no thread panicked")
				case sc.name == "lock-order-deadlock" && deadlocks == 0:
					t.Fatal("no schedule deadlocked")
				case sc.name == "deadline-in-lock" && (rep.Status != StatusDeadline || rep.Runs != 0):
					t.Fatalf("status %s after %d runs; want the deadline inside the first run", rep.Status, rep.Runs)
				}
			})
		}
		for _, parallel := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel=%d", sc.name, parallel), func(t *testing.T) {
				opts := sc.opts(t)
				opts.Parallel = parallel
				search(t, Explore, opts)
			})
		}
		t.Run(sc.name+"/dpor", func(t *testing.T) { search(t, ExploreDPOR, sc.opts(t)) })
	}
}

// TestKillUnwindsDeferredOps kills a run whose threads run ops from defers
// while they unwind: Releases from WithLock, and a Fork whose new thread
// must be killed too. Under a strategy that preempts at every event the
// Releases reach a preemption point during the kill; under one that never
// preempts they complete. Either way Run returns the deadlock and its
// run-scoped pool leaves no goroutine behind.
func TestKillUnwindsDeferredOps(t *testing.T) {
	p := NewProgram("deferred-ops")
	a, b := p.Mutex("a"), p.Mutex("b")
	p.SetMain(func(t *T) {
		t.WithLock(a, func() {
			h := t.Fork("w", func(t *T) {
				defer t.Fork("late", func(*T) {})
				t.WithLock(b, func() { t.Acquire(a) })
			})
			t.Join(h)
		})
	})
	for _, quantum := range []int{1, 1 << 30} {
		t.Run(fmt.Sprintf("quantum=%d", quantum), func(t *testing.T) {
			requireNoGoroutineLeak(t, func(int) {
				_, err := Run(p, Options{Strategy: &RoundRobin{Quantum: quantum}})
				if !errors.Is(err, ErrDeadlock) {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			})
		})
	}
}
