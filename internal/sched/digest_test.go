package sched_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden snapshots instead of comparing")

// digestGolden pins the runtime's observable behaviour, one row per run:
// event count, switch and preemption accounting, final variable values (or
// the error text), a hash of the schedule and the location-free event
// tuples, and, last, a separate hash of the per-event location strings.
// It was recorded with the retired two-hop handoff and per-event
// symbolization (Options.LegacyHandoff / LegacyLocations) and reproduced
// with both on before they were deleted, so it is the oracle those
// protocols used to be. Source-line drift in the workload or generator
// code changes only location hashes;
// `go test ./internal/sched -run LegacyLocationsDifferential -update-golden`
// re-records.
//
// The runs are the 200 generated programs under random and round-robin
// strategies (plus cooperative on every fourth seed), every registered
// workload under the five-strategy battery at quick size, and one
// event-budget abort. internal/harness reads the workload rows too.
const digestGolden = "testdata/digest.golden"

// digestRows runs every golden run and returns its rows, in golden order
// and without line ends.
func digestRows() []string {
	var rows []string
	row := func(label string, build func() *sched.Program, strat sched.Strategy, maxEvents int) {
		res, err := sched.Run(build(), sched.Options{Strategy: strat, RecordTrace: true, MaxEvents: maxEvents})
		rows = append(rows, digestRow(label, res, err))
	}
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		build := func() *sched.Program { return digestGenProgram(seed) }
		row(fmt.Sprintf("gen/%d/random", seed), build, sched.NewRandom(seed), 0)
		row(fmt.Sprintf("gen/%d/rr", seed), build, &sched.RoundRobin{Quantum: 1 + int(seed%4)}, 0)
		if seed%4 == 0 {
			row(fmt.Sprintf("gen/%d/coop", seed), build, sched.Cooperative{}, 0)
		}
	}
	for _, spec := range workloads.All() {
		build := func() *sched.Program { return spec.New(0, quickSize(spec)) }
		for _, strat := range []sched.Strategy{
			sched.Cooperative{},
			&sched.RoundRobin{Quantum: 1},
			&sched.RoundRobin{Quantum: 5},
			sched.NewRandom(1),
			sched.NewRandom(2),
		} {
			label := fmt.Sprintf("workload/%s/%s/seed=%d", spec.Name, strat.Name(), strat.Seed())
			row(label, build, strat, 0)
		}
	}
	sor, _ := workloads.Get("sor")
	row("abort/sor/random/seed=5/max-events=500",
		func() *sched.Program { return sor.New(0, 0) }, sched.NewRandom(5), 500)
	return rows
}

// TestHandoffDifferentialFuzz sweeps 200 generated programs under random,
// round-robin and cooperative strategies, every workload under the battery
// and one event-budget abort through the one-hop handoff, and compares
// each run with the row the two-hop protocol recorded: event count, switch
// accounting, final state or error, and the schedule and event hash must
// all match.
func TestHandoffDifferentialFuzz(t *testing.T) {
	compareDigest(t, "behaviour", func(row string) string {
		behaviour, _, _ := strings.Cut(row, " locs=")
		return behaviour
	})
}

// TestLegacyLocationsDifferential compares every run's hash of the
// per-event location strings, captured through the PC cache, with the row
// per-event symbolization recorded: the cache is a pure memoization.
func TestLegacyLocationsDifferential(t *testing.T) {
	compareDigest(t, "location", func(row string) string {
		label, _, _ := strings.Cut(row, " ")
		_, locs, _ := strings.Cut(row, " locs=")
		return label + " locs=" + locs
	})
}

// compareDigest checks the part of every row that part selects against
// the golden, or rewrites the golden under -update-golden.
func compareDigest(t *testing.T, what string, part func(row string) string) {
	t.Helper()
	got := digestRows()
	if *updateGolden {
		if err := os.WriteFile(digestGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if g, w := part(got[i]), part(want[i]); g != w {
			t.Errorf("row %d %s differs:\n got  %s\n want %s", i+1, what, g, w)
			if bad++; bad == 10 {
				t.Fatal("too many differing rows")
			}
		}
	}
}

// digestGenSeeds is the number of generated programs the golden covers.
const digestGenSeeds = 200

// digestGenProgram builds the golden's generated program for seed.
func digestGenProgram(seed int64) *sched.Program {
	return gen.Program(seed, gen.Config{
		Threads:      2 + int(seed%4),
		Vars:         3 + int(seed%3),
		OpsPerThread: 10 + int(seed%8),
	})
}

// tidsOf returns the thread of each of tr's events, the schedule that
// NewReplay and NewReplayChoices take.
func tidsOf(tr *trace.Trace) []trace.TID {
	tids := make([]trace.TID, len(tr.Events))
	for i, e := range tr.Events {
		tids[i] = e.Tid
	}
	return tids
}

// quickSize shrinks the heavyweight workloads as harness.Config.Quick does.
func quickSize(spec workloads.Spec) int {
	if spec.DefaultSize > 8 {
		return spec.DefaultSize / 4
	}
	return 0
}

// digestRow renders one run as a golden row. Its schedule hash is over the
// thread of each event.
func digestRow(label string, res *sched.Result, err error) string {
	sh := fnv.New64a()
	for _, e := range res.Trace.Events {
		fmt.Fprintf(sh, "%d,", e.Tid)
	}
	fmt.Fprintf(sh, "|%v|", res.Choices)
	lh := fnv.New64a()
	for _, e := range res.Trace.Events {
		fmt.Fprintf(sh, "%d %d %d %d;", e.Idx, e.Tid, e.Op, e.Target)
		fmt.Fprintf(lh, "%s\n", res.Strings.Name(e.Loc))
	}
	outcome := fmt.Sprintf("vars=%v vols=%v", res.FinalVars, res.FinalVolatiles)
	if err != nil {
		outcome = fmt.Sprintf("err=%q", err.Error())
	}
	return fmt.Sprintf("%s events=%d switches=%d preemptions=%d %s trace=%016x locs=%016x",
		label, res.Events, res.Stats.Switches, res.Stats.Preemptions, outcome, sh.Sum64(), lh.Sum64())
}
