package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// explorers are the two search entry points, which share one loop.
var explorers = []struct {
	name    string
	explore func(*Program, ExploreOptions) (*ExploreReport, error)
}{{"explore", Explore}, {"dpor", ExploreDPOR}}

// visitLog runs explore and records a deterministic fingerprint of every
// visit, in order.
func visitLog(t *testing.T, explore func(*Program, ExploreOptions) (*ExploreReport, error), build func() *Program, opts ExploreOptions) ([]string, int) {
	t.Helper()
	var log []string
	opts.RecordTrace = true
	opts.Visit = func(res *Result, err error) bool {
		switch {
		case err != nil:
			log = append(log, "err:"+err.Error())
		default:
			log = append(log, fmt.Sprintf("%v|%v", res.FinalVars, res.Schedule))
		}
		return true
	}
	rep, err := explore(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return log, rep.Runs
}

// ExploreFixtures are the small programs explore.golden pins, in golden
// order. The golden test lives in package sched_test, because the
// workloads it also runs import this package.
var ExploreFixtures = []struct {
	Name string
	New  func() *Program
}{
	{"two-writers", twoWriters},
	{"incrementers", incrementers},
	{"locked-incrementers", lockedIncrementers},
	{"counter-2x2", func() *Program { return counterProgram(2, 2, true) }},
	{"counter-3x1-unlocked", func() *Program { return counterProgram(3, 1, false) }},
}

// TestExploreParallelEarlyStop: Visit returning false stops either
// explorer at that visit.
func TestExploreParallelEarlyStop(t *testing.T) {
	for _, ex := range explorers {
		visits := 0
		rep, err := ex.explore(incrementers(), ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
			Visit: func(*Result, error) bool {
				visits++
				return visits < 3
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs != 3 || visits != 3 || rep.Abandoned == 0 {
			t.Fatalf("%s: runs=%d visits=%d abandoned=%d, want 3 runs and 3 visits with frontier left",
				ex.name, rep.Runs, visits, rep.Abandoned)
		}
	}
}

// TestExploreParallelMaxRuns: a MaxRuns cut visits a prefix of the full
// search's visit sequence.
func TestExploreParallelMaxRuns(t *testing.T) {
	base := ExploreOptions{MaxRuns: 4000, MaxPreemptions: 2}
	for _, ex := range explorers {
		fullLog, fullRuns := visitLog(t, ex.explore, incrementers, base)
		cut := base
		cut.MaxRuns = fullRuns / 2
		if cut.MaxRuns < 2 {
			t.Fatalf("%s: the full search makes only %d runs", ex.name, fullRuns)
		}
		log, runs := visitLog(t, ex.explore, incrementers, cut)
		if runs != cut.MaxRuns || len(log) != runs {
			t.Fatalf("%s: %d runs and %d visits under MaxRuns %d", ex.name, runs, len(log), cut.MaxRuns)
		}
		for i := range log {
			if log[i] != fullLog[i] {
				t.Fatalf("%s: visit %d differs under truncation:\n  cut  %s\n  full %s", ex.name, i, log[i], fullLog[i])
			}
		}
	}
}

// TestExploreParallelObserverFactory: a complete search calls the
// observer factory exactly once per visited run.
func TestExploreParallelObserverFactory(t *testing.T) {
	calls := 0
	rep, err := Explore(twoWriters(), ExploreOptions{
		MaxRuns:        100,
		MaxPreemptions: 1,
		Observers: func() []Observer {
			calls++
			return []Observer{&CountObserver{}}
		},
		Visit: func(res *Result, err error) bool { return err == nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusComplete || rep.Runs < 2 {
		t.Fatalf("report %+v, want a complete search of several runs", rep)
	}
	if calls != rep.Runs {
		t.Fatalf("observer factory called %d times for %d runs", calls, rep.Runs)
	}
}

// TestPreemptionPrefixMatchesNaive is the regression test for the
// incremental preemption counting: on a deep synthetic decision path the
// prefix sums must agree with the quadratic recount at every index.
func TestPreemptionPrefixMatchesNaive(t *testing.T) {
	points := make([]ChoicePoint, 2000)
	for i := range points {
		cur := trace.TID(i % 3)
		if i%17 == 0 {
			cur = -1 // start-of-run style point
		}
		chosen := trace.TID((i + i/7) % 3)
		points[i] = ChoicePoint{
			Runnable: []trace.TID{0, 1, 2},
			Chosen:   chosen,
			Current:  cur,
			EventIdx: i,
		}
	}
	pre := preemptionPrefix(nil, points)
	for i := 0; i <= len(points); i++ {
		if want := preemptionsIn(points[:i]); pre[i] != want {
			t.Fatalf("prefix[%d] = %d, naive = %d", i, pre[i], want)
		}
	}
}

// TestExploreDeepDecisionTree drives the explorer over a deep tree (many
// decision points per run) and bounds its wall time; before the prefix-sum
// fix the per-run expansion was quadratic in depth and this blows up.
func TestExploreDeepDecisionTree(t *testing.T) {
	start := time.Now()
	rep, err := Explore(counterProgram(2, 200, true), ExploreOptions{
		MaxRuns:        40,
		MaxPreemptions: 1,
		Visit:          func(res *Result, err error) bool { return err == nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 40 {
		t.Fatalf("runs = %d, want 40", rep.Runs)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("deep exploration took %v; expansion likely superlinear again", d)
	}
}

// BenchmarkExploreSequential isolates the explorer (events/sec,
// allocs/op) outside the table harness.
func BenchmarkExploreSequential(b *testing.B) {
	b.ReportAllocs()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := 0
		if _, err := Explore(counterProgram(2, 4, true), ExploreOptions{
			MaxRuns:        600,
			MaxPreemptions: 2,
			Visit: func(res *Result, err error) bool {
				if res != nil {
					ev += res.Events
				}
				return true
			},
		}); err != nil {
			b.Fatal(err)
		}
		events = ev
	}
	b.StopTimer()
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
