package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// requireNoGoroutineLeak runs f and fails if the process goroutine count
// has not returned to its baseline shortly after: every replayed virtual
// thread must be gone when the search returns, on every exit path.
func requireNoGoroutineLeak(t *testing.T, f func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	f()
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
// including thread panics recovered on pooled goroutines, and runs killed
// while threads are inside WithLock bodies — under Explore and
// ExploreDPOR, asserting no goroutine outlives the call. The parallel=N
// subtests run Explore with the deprecated ExploreOptions.Parallel set to
// N, as perfbench still sets it: the ignored field must start no worker.
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
		{"observer-panic", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2,
				Observers: func() []Observer { return []Observer{&schedulePanicObserver{}} },
				Visit:     func(*Result, error) bool { return true }}
		}},
		{"factory-panic", func(*testing.T) ExploreOptions {
			return ExploreOptions{MaxRuns: 100, MaxPreemptions: 2,
				Observers: func() []Observer { panic("factory exploded") },
				Visit:     func(*Result, error) bool { return true }}
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
			requireNoGoroutineLeak(t, func() {
				rep, err := explore(prog(), opts)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case sc.name == "thread-panic" && rep.Panics == 0:
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
			requireNoGoroutineLeak(t, func() {
				_, err := Run(p, Options{Strategy: &RoundRobin{Quantum: quantum}})
				if !errors.Is(err, ErrDeadlock) {
					t.Fatalf("err = %v, want ErrDeadlock", err)
				}
			})
		})
	}
}
