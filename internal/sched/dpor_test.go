package sched

import (
	"fmt"
	"testing"
)

// outcomeSet collects the distinct final shared-state vectors an explorer
// reaches.
func outcomeSet(t *testing.T, explore func(*Program, ExploreOptions) (*ExploreReport, error), build func() *Program, bound int) (map[string]bool, int) {
	t.Helper()
	outcomes := map[string]bool{}
	rep, err := explore(build(), ExploreOptions{
		MaxRuns:        5000,
		MaxPreemptions: bound,
		Visit: func(res *Result, err error) bool {
			if err != nil {
				t.Fatalf("run error: %v", err)
			}
			outcomes[fmt.Sprint(res.FinalVars)] = true
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusComplete {
		t.Fatalf("exploration cut off: %s", rep.Status)
	}
	return outcomes, rep.Runs
}

// twoWriters: final value of x depends on write order.
func twoWriters() *Program {
	p := NewProgram("two-writers")
	x := p.Var("x")
	p.SetMain(func(t *T) {
		h := t.Fork("w", func(t *T) { t.Write(x, 2) })
		t.Write(x, 1)
		t.Join(h)
	})
	return p
}

// incrementers: two unlocked read-modify-write pairs; outcomes 1 and 2.
func incrementers() *Program {
	p := NewProgram("incrementers")
	x := p.Var("x")
	body := func(t *T) {
		v := t.Read(x)
		t.Write(x, v+1)
	}
	p.SetMain(func(t *T) {
		h := t.Fork("w", body)
		body(t)
		t.Join(h)
	})
	return p
}

// lockedIncrementers: same but correct; single outcome.
func lockedIncrementers() *Program {
	p := NewProgram("locked-incrementers")
	x := p.Var("x")
	m := p.Mutex("m")
	body := func(t *T) {
		t.Acquire(m)
		v := t.Read(x)
		t.Write(x, v+1)
		t.Release(m)
	}
	p.SetMain(func(t *T) {
		h := t.Fork("w", body)
		body(t)
		t.Join(h)
	})
	return p
}

func TestDPORFindsAllOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Program
		bound int
	}{
		{"two-writers", twoWriters, 2},
		{"incrementers", incrementers, 2},
		{"locked-incrementers", lockedIncrementers, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			naive, naiveRuns := outcomeSet(t, Explore, tc.build, tc.bound)
			dpor, dporRuns := outcomeSet(t, ExploreDPOR, tc.build, tc.bound)
			if len(naive) != len(dpor) {
				t.Fatalf("outcome sets differ: naive %v dpor %v", naive, dpor)
			}
			for o := range naive {
				if !dpor[o] {
					t.Fatalf("dpor missed outcome %v", o)
				}
			}
			if dporRuns > naiveRuns {
				t.Errorf("dpor ran %d > naive %d", dporRuns, naiveRuns)
			}
			t.Logf("%s: naive %d runs, dpor %d runs, outcomes %d", tc.name, naiveRuns, dporRuns, len(naive))
		})
	}
}

func TestDPORPrunesSubstantially(t *testing.T) {
	// Independent writers on DIFFERENT variables: every interleaving is
	// equivalent, so DPOR should explore almost nothing while the naive
	// explorer branches.
	build := func() *Program {
		p := NewProgram("independent")
		a := p.Var("a")
		b := p.Var("b")
		p.SetMain(func(t *T) {
			h := t.Fork("w", func(t *T) {
				t.Write(b, 1)
				t.Write(b, 2)
				t.Write(b, 3)
			})
			t.Write(a, 1)
			t.Write(a, 2)
			t.Write(a, 3)
			t.Join(h)
		})
		return p
	}
	_, naiveRuns := outcomeSet(t, Explore, build, 2)
	_, dporRuns := outcomeSet(t, ExploreDPOR, build, 2)
	if dporRuns*3 > naiveRuns {
		t.Fatalf("dpor %d runs vs naive %d: expected substantial pruning", dporRuns, naiveRuns)
	}
}

func TestDPORRequiresVisit(t *testing.T) {
	if _, err := ExploreDPOR(twoWriters(), ExploreOptions{}); err == nil {
		t.Fatal("ExploreDPOR accepted missing Visit")
	}
}

func TestDPORVisitCanStop(t *testing.T) {
	rep, err := ExploreDPOR(twoWriters(), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 2,
		Visit:          func(*Result, error) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 1 {
		t.Fatalf("runs = %d", rep.Runs)
	}
	if rep.Status != StatusComplete {
		t.Fatalf("Visit-stop should report complete, got %s", rep.Status)
	}
}

func TestDPORFindsDeadlockSchedule(t *testing.T) {
	// The AB/BA deadlock requires a specific interleaving; DPOR's
	// conflict-directed flips on the lock operations must reach it.
	build := func() *Program {
		p := NewProgram("abba")
		a := p.Mutex("A")
		b := p.Mutex("B")
		p.SetMain(func(t *T) {
			h := t.Fork("w", func(t *T) {
				t.Acquire(b)
				t.Acquire(a)
				t.Release(a)
				t.Release(b)
			})
			t.Acquire(a)
			t.Acquire(b)
			t.Release(b)
			t.Release(a)
			t.Join(h)
		})
		return p
	}
	foundDeadlock := false
	_, err := ExploreDPOR(build(), ExploreOptions{
		MaxRuns:        2000,
		MaxPreemptions: 2,
		Visit: func(res *Result, err error) bool {
			if err != nil {
				foundDeadlock = true
				return false
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !foundDeadlock {
		t.Fatal("DPOR never drove the program into the AB/BA deadlock")
	}
}

func TestGuidedEventIdxMapping(t *testing.T) {
	g := &Guided{}
	res, err := Run(counterProgram(2, 2, true), Options{Strategy: g, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// The last point with EventIdx == e must have chosen the thread that
	// executed event e.
	lastFor := map[int]ChoicePoint{}
	for _, pt := range g.Points {
		lastFor[pt.EventIdx] = pt
	}
	for i, e := range res.Trace.Events {
		pt, ok := lastFor[i]
		if !ok {
			t.Fatalf("no decision point for event %d", i)
		}
		if pt.Chosen != e.Tid {
			t.Fatalf("event %d by T%d but decision chose T%d", i, e.Tid, pt.Chosen)
		}
	}
}

func BenchmarkExploreNaiveTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Explore(incrementers(), ExploreOptions{
			MaxRuns: 5000, MaxPreemptions: 2,
			Visit: func(*Result, error) bool { return true },
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreDPORTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ExploreDPOR(incrementers(), ExploreOptions{
			MaxRuns: 5000, MaxPreemptions: 2,
			Visit: func(*Result, error) bool { return true },
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExploreMetricsMatchReport: both explorers run through one loop, so
// each reports its runs and states to explore.runs / explore.states —
// deltas equal to the returned report — and publishes its run cap.
func TestExploreMetricsMatchReport(t *testing.T) {
	for _, ex := range explorers {
		runs0, states0 := mExploreRuns.Load(), mExploreStates.Load()
		maxRuns := 700 + len(ex.name) // distinct per explorer
		rep, err := ex.explore(counterProgram(3, 1, false), ExploreOptions{
			MaxRuns:        maxRuns,
			MaxPreemptions: 2,
			Visit:          func(*Result, error) bool { return true },
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs < 2 {
			t.Fatalf("%s: %d runs; the fixture should branch", ex.name, rep.Runs)
		}
		if d := mExploreRuns.Load() - runs0; d != int64(rep.Runs) {
			t.Errorf("%s: explore.runs delta %d, report Runs %d", ex.name, d, rep.Runs)
		}
		if d := mExploreStates.Load() - states0; d != rep.States {
			t.Errorf("%s: explore.states delta %d, report States %d", ex.name, d, rep.States)
		}
		if got := mExploreMaxRuns.Load(); got != int64(maxRuns) {
			t.Errorf("%s: explore.max_runs = %d, want %d", ex.name, got, maxRuns)
		}
	}
}
