package sched_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// exploreGolden pins Explore's visit sequence in dpor.golden's row format.
// The searches are every workload at 2 threads, size 1, bound 2 and a
// 20000-run cap, the digest's generated programs at bounds 0-2 with a
// small run cap, and the ExploreFixtures at bound 2 and a 4000-run cap.
// `go test ./internal/sched -run ExploreParallelBitIdentical -update-golden`
// re-records.
const exploreGolden = "testdata/explore.golden"

// certifyGoldenItems mirrors the certify benchmark's items: the workloads
// whose bounded space completes under the cap at certify's defaults.
// TestCarriedPreemptionsMatchReplays and TestRetainedResultsMatchReplay
// search them.
var certifyGoldenItems = []string{
	"bank", "bank-buggy", "connpool", "crawler", "montecarlo", "philo",
	"raytracer", "raytracer-racy", "stringbuffer-buggy", "tsp", "warehouse",
}

// exploreRows runs every golden search and returns its rows, in golden
// order. The first label element names the row's group.
func exploreRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	for _, spec := range workloads.All() {
		rows = append(rows, searchRow(t, sched.Explore,
			fmt.Sprintf("workload/%s/threads=2/size=1/bound=2", spec.Name), spec.New(2, 1), 2, 20000))
	}
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		for bound := 0; bound <= 2; bound++ {
			rows = append(rows, searchRow(t, sched.Explore,
				fmt.Sprintf("gen/%d/bound=%d", seed, bound), digestGenProgram(seed), bound, genGoldenCap))
		}
	}
	for _, f := range sched.ExploreFixtures {
		rows = append(rows, searchRow(t, sched.Explore, f.Name+"/bound=2", f.New(), 2, 4000))
	}
	return rows
}

// TestExploreParallelBitIdentical compares every Explore search with its
// explore.golden row, one subtest per group: the workloads, the generated
// programs, and each fixture. The name is kept from when the
// oracle was a parallel replay engine; that engine reproduced the golden
// with four workers before it was deleted.
func TestExploreParallelBitIdentical(t *testing.T) {
	got := exploreRows(t)
	want := readGolden(t, exploreGolden, got)
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	groups := []string{"workload", "gen"}
	for _, f := range sched.ExploreFixtures {
		groups = append(groups, f.Name)
	}
	for _, g := range groups {
		t.Run(g, func(t *testing.T) {
			compareRows(t, rowsIn(got, g), rowsIn(want, g))
		})
	}
}

// TestCarriedPreemptionsMatchReplays: every prefix on a search's stack
// carries its preemption count, which the expansion that pushed it
// computed and which the search takes as the count at every decision its
// replay records. On explore.golden's certify-item and generated-program
// searches, under Explore's expansion and ExploreDPOR's, each carried
// count must equal the preemptions the runtime counted in its replay.
func TestCarriedPreemptionsMatchReplays(t *testing.T) {
	search := func(label string, p *sched.Program, bound, maxRuns int) {
		for _, dpor := range []bool{false, true} {
			bad := 0
			_, err := sched.ExploreCarried(p, sched.ExploreOptions{
				MaxRuns:        maxRuns,
				MaxPreemptions: bound,
				Visit:          func(*sched.Result, error) bool { return true },
			}, dpor, func(prefix []trace.TID, carried, counted int) {
				if bad++; bad <= 3 {
					t.Errorf("%s (dpor %v): prefix %v carried %d preemptions, its replay made %d", label, dpor, prefix, carried, counted)
				}
			})
			if err != nil {
				t.Fatalf("%s (dpor %v): %v", label, dpor, err)
			}
		}
	}
	for _, name := range certifyGoldenItems {
		spec, _ := workloads.Get(name)
		search("workload/"+name, spec.New(2, 1), 2, 20000)
	}
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		for bound := 0; bound <= 2; bound++ {
			search(fmt.Sprintf("gen/%d/bound=%d", seed, bound), digestGenProgram(seed), bound, genGoldenCap)
		}
	}
}

// settledRuns caps each workload search of
// TestForcedDecisionsSettleUnrecorded, which replays every run twice, so
// the test stays within a few seconds.
const settledRuns = 500

// TestForcedDecisionsSettleUnrecorded: a search's Guided records a point
// only for a decision at which a branch can fit the bound. On
// explore.golden's and dpor.golden's searches, the workloads' capped at
// settledRuns runs, each run's log must agree
// with a replay of its prefix by a zero-value Guided, which records every
// decision past its prefix: the same path, the same point wherever both
// record one, and each point that only the full log holds chose the
// running thread, in a run with no preemption to spare, and has no
// alternative that fits the bound.
func TestForcedDecisionsSettleUnrecorded(t *testing.T) {
	search := func(label string, p *sched.Program, bound, maxRuns int, dpor bool) {
		bad := 0
		_, err := sched.ExploreSettled(p, sched.ExploreOptions{
			MaxRuns:        maxRuns,
			MaxPreemptions: bound,
			Visit:          func(*sched.Result, error) bool { return true },
		}, dpor, func(prefix []trace.TID, msg string) {
			if bad++; bad <= 3 {
				t.Errorf("%s: prefix %v: %s", label, prefix, msg)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for _, spec := range workloads.All() {
		search("explore/workload/"+spec.Name, spec.New(2, 1), 2, settledRuns, false)
		search("dpor/workload/"+spec.Name, spec.New(3, 1), 2, settledRuns, true)
	}
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		for bound := 0; bound <= 2; bound++ {
			label := fmt.Sprintf("gen/%d/bound=%d", seed, bound)
			search("explore/"+label, digestGenProgram(seed), bound, genGoldenCap, false)
			search("dpor/"+label, digestGenProgram(seed), bound, genGoldenCap, true)
		}
	}
	for _, f := range sched.ExploreFixtures {
		search("explore/"+f.Name, f.New(), 2, 4000, false)
	}
}

// rowsIn returns the rows of group, in order.
func rowsIn(rows []string, group string) []string {
	var out []string
	for _, r := range rows {
		if strings.HasPrefix(r, group+"/") {
			out = append(out, r)
		}
	}
	return out
}
