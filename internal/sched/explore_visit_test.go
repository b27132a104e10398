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
// The searches are the certify benchmark items (certifyGoldenItems) at 2
// threads, size 1, bound 2 and a 20000-run cap, the digest's generated
// programs at bounds 0-2 with a small run cap, and the ExploreFixtures at
// bound 2 and a 4000-run cap.
// `go test ./internal/sched -run ExploreParallelBitIdentical -update-golden`
// re-records.
const exploreGolden = "testdata/explore.golden"

// certifyGoldenItems mirrors the certify benchmark's items: the workloads
// whose bounded space completes under the cap at certify's defaults.
var certifyGoldenItems = []string{
	"bank", "bank-buggy", "connpool", "crawler", "montecarlo", "philo",
	"raytracer", "raytracer-racy", "stringbuffer-buggy", "tsp", "warehouse",
}

// exploreRows runs every golden search and returns its rows, in golden
// order. The first label element names the row's group.
func exploreRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	for _, name := range certifyGoldenItems {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		rows = append(rows, searchRow(t, sched.Explore,
			fmt.Sprintf("workload/%s/threads=2/size=1/bound=2", name), spec.New(2, 1), 2, 20000))
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
// explore.golden row, one subtest per group: the certify items, the
// generated programs, and each fixture. The name is kept from when the
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
// computed, so that a run's counts are swept only past its prefix. On
// explore.golden's certify-item and generated-program searches, under
// Explore's expansion and ExploreDPOR's, each carried count must equal a
// recount over its replay's choice points.
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
