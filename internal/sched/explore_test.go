package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/obs/flight"
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
			log = append(log, fmt.Sprintf("%v|%v", res.FinalVars, tidsOf(res.Trace)))
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

// exploreChecking runs Explore's search, or with dpor ExploreDPOR's, and
// hands check each run's stack entry, result and decision log.
func exploreChecking(p *Program, opts ExploreOptions, dpor bool, check func(f frontier, res *Result, g *Guided)) (*ExploreReport, error) {
	if dpor {
		return exploreDPORRuns(p, opts, func(r DPORRun, _ [][]trace.TID) { check(r.frontier, r.res, &r.log) })
	}
	return exploreDFS(p, &opts, "explore",
		func(f frontier, res *Result, g *Guided, push func(frontier), _ *flight.Track) {
			check(f, res, g)
			expandPrefixes(g, f.pre, opts.MaxPreemptions, push)
		})
}

// ExploreCarried runs Explore's search, or with dpor ExploreDPOR's, and
// calls bad for every replay whose carried preemption count, which the
// expansion that pushed its prefix computed, is not the preemptions the
// runtime counted in the replay (Result.Stats.Preemptions). Past its
// prefix a replay never preempts, so the two must agree.
func ExploreCarried(p *Program, opts ExploreOptions, dpor bool, bad func(prefix []trace.TID, carried, counted int)) (*ExploreReport, error) {
	return exploreChecking(p, opts, dpor, func(f frontier, res *Result, _ *Guided) {
		if res != nil && res.Stats.Preemptions != f.pre {
			bad(f.prefix, f.pre, res.Stats.Preemptions)
		}
	})
}

// replayFull replays prefix on r with a zero-value Guided, which records
// every decision past its prefix as a point, and returns the result and
// the log, valid until r's next replay.
func (r *replayer) replayFull(p *Program, prefix []trace.TID) (*Result, *Guided) {
	r.guided.Prefix, r.guided.spent = prefix, false
	res, _ := r.rt.run(p, Options{Strategy: &r.guided, RecordTrace: true})
	return res, &r.guided
}

// ExploreSettled runs Explore's search, or with dpor ExploreDPOR's, and
// replays each run's prefix with a zero-value Guided (replayFull). It
// calls bad for every way the search's log departs from that full log:
// a path that differs, a recorded point that differs from the full log's
// point at its decision, a full-log point that is not at its decision's
// index past the prefix, and a full-log point the search's log lacks
// that is a select, did not choose the thread that was running, lies in a
// run with a preemption to spare, or has an alternative that fits the
// bound.
func ExploreSettled(p *Program, opts ExploreOptions, dpor bool, bad func(prefix []trace.TID, msg string)) (*ExploreReport, error) {
	full := newReplayer()
	defer full.rt.close()
	return exploreChecking(p, opts, dpor, func(f frontier, res *Result, g *Guided) {
		if res == nil {
			return
		}
		_, all := full.replayFull(p, f.prefix)
		if !slices.Equal(g.path, all.path) {
			bad(f.prefix, fmt.Sprintf("path %v, the full log's %v", g.path, all.path))
			return
		}
		rec := 0
		for k := range all.Points {
			pt := &all.Points[k]
			if dp := int(pt.decision); dp != len(f.prefix)+k {
				bad(f.prefix, fmt.Sprintf("full-log point %d is decision %d", k, dp))
				return
			}
			if rec < len(g.Points) && g.Points[rec].decision == pt.decision {
				if q := &g.Points[rec]; !reflect.DeepEqual(*q, *pt) {
					bad(f.prefix, fmt.Sprintf("point %+v at decision %d, the full log's %+v", *q, pt.decision, *pt))
				}
				rec++
				continue
			}
			switch {
			case pt.Select:
				bad(f.prefix, fmt.Sprintf("select at decision %d not recorded", pt.decision))
			case pt.Chosen != pt.Current || !containsTID(pt.Runnable, pt.Current):
				bad(f.prefix, fmt.Sprintf("decision %d chose T%d, not the running T%d, and was not recorded", pt.decision, pt.Chosen, pt.Current))
			case f.pre < opts.MaxPreemptions:
				bad(f.prefix, fmt.Sprintf("decision %d not recorded with %d of %d preemptions made", pt.decision, f.pre, opts.MaxPreemptions))
			default:
				for _, alt := range pt.Runnable {
					cost := 0
					if containsTID(pt.Runnable, pt.Current) && alt != pt.Current {
						cost = 1
					}
					if alt != pt.Chosen && f.pre+cost <= opts.MaxPreemptions {
						bad(f.prefix, fmt.Sprintf("decision %d not recorded, but T%d fits the bound there", pt.decision, alt))
					}
				}
			}
		}
		if rec != len(g.Points) {
			bad(f.prefix, fmt.Sprintf("%d recorded points, %d of them in the full log", len(g.Points), rec))
		}
	})
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
