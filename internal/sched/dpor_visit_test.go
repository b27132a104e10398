package sched_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// dporGolden pins ExploreDPOR's visit sequence, one row per search: the
// report's status, runs and states, and a hash of every visited run's
// Schedule and Choices (or error text), in visit order. The searches are
// the dpor benchmark items (every workload but dporGoldenExcluded) at 3
// threads, size 1, bound 2 and a 20000-run cap, and the digest's generated
// programs at bounds 0-2 with a small run cap.
// `go test ./internal/sched -run DPORVisitGolden -update-golden` re-records.
const dporGolden = "testdata/dpor.golden"

// dporGoldenExcluded mirrors the dpor benchmark's excluded workloads:
// barber hits the run cap, six finish with no conflict to branch on, and
// five take too long for a unit test.
var dporGoldenExcluded = map[string]bool{
	"barber": true,
	"crypt":  true, "lufact": true, "moldyn": true, "series": true, "sor": true, "sparse": true,
	"elevator": true, "indexer": true, "pubsub": true, "rwcache": true, "syncbench": true,
}

// dporGoldenGenCap caps each generated program's search.
const dporGoldenGenCap = 30

// dporRows runs every golden search and returns its rows, in golden order.
func dporRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	row := func(label string, p *sched.Program, bound, maxRuns int) {
		h := fnv.New64a()
		rep, err := sched.ExploreDPOR(p, sched.ExploreOptions{
			MaxRuns:        maxRuns,
			MaxPreemptions: bound,
			Visit: func(res *sched.Result, err error) bool {
				if err != nil {
					fmt.Fprintf(h, "err=%q;", err.Error())
					return true
				}
				fmt.Fprintf(h, "%v|%v;", res.Schedule, res.Choices)
				return true
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rows = append(rows, fmt.Sprintf("%s status=%s runs=%d states=%d abandoned=%d visits=%016x",
			label, rep.Status, rep.Runs, rep.States, rep.Abandoned, h.Sum64()))
	}
	for _, spec := range workloads.All() {
		if !dporGoldenExcluded[spec.Name] {
			row(fmt.Sprintf("workload/%s/threads=3/size=1/bound=2", spec.Name), spec.New(3, 1), 2, 20000)
		}
	}
	for seed := int64(0); seed < digestGenSeeds; seed++ {
		for bound := 0; bound <= 2; bound++ {
			row(fmt.Sprintf("gen/%d/bound=%d", seed, bound), digestGenProgram(seed), bound, dporGoldenGenCap)
		}
	}
	return rows
}

// TestDPORVisitGolden compares every search's row with the golden.
func TestDPORVisitGolden(t *testing.T) {
	got := dporRows(t)
	if *updateGolden {
		if err := os.WriteFile(dporGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(dporGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i+1, got[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many differing rows")
			}
		}
	}
}

// dporOracleRuns caps each search TestDPORIndexMatchesOracle compares, so
// the test stays within a few seconds.
const dporOracleRuns = 40

// TestDPORIndexMatchesOracle compares every expansion of the indexed
// backtrack scan with the quadratic scan it replaced: every workload at 2
// and 3 threads (size 1) and the digest's generated programs, each at
// bounds 0-2, with each search capped at dporOracleRuns runs.
func TestDPORIndexMatchesOracle(t *testing.T) {
	total := 0
	check := func(label string, p *sched.Program, bound int) {
		_, n, err := sched.ExploreDPORAgainstOracle(p, sched.ExploreOptions{
			MaxRuns:        dporOracleRuns,
			MaxPreemptions: bound,
			Visit:          func(*sched.Result, error) bool { return true },
		}, func(n int, got, want [][]trace.TID) {
			t.Errorf("%s: expansion %d pushes\n %v\nthe oracle pushes\n %v", label, n, got, want)
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		total += n
	}
	for bound := 0; bound <= 2; bound++ {
		for _, spec := range workloads.All() {
			for _, threads := range []int{2, 3} {
				check(fmt.Sprintf("%s/threads=%d/bound=%d", spec.Name, threads, bound), spec.New(threads, 1), bound)
			}
		}
		for seed := int64(0); seed < digestGenSeeds; seed++ {
			check(fmt.Sprintf("gen/%d/bound=%d", seed, bound), digestGenProgram(seed), bound)
		}
	}
	t.Logf("%d expansions match the oracle", total)
}

var dporExpandSink int

// BenchmarkDPORExpand times ExploreDPOR's bookkeeping alone: the backtrack
// expansion of every run of two dpor benchmark items' searches (philo,
// lock-bound, and ratelimit, with channels and selects; 3 threads, size 1,
// bound 2), recorded once outside the timer. events/s counts the expanded
// runs' trace events.
func BenchmarkDPORExpand(b *testing.B) {
	var items [][]sched.DPORRun
	events := 0
	for _, name := range []string{"philo", "ratelimit"} {
		spec, _ := workloads.Get(name)
		runs, err := sched.RecordDPOR(spec.New(3, 1), sched.ExploreOptions{MaxRuns: 20000, MaxPreemptions: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range runs {
			events += r.Events()
		}
		items = append(items, runs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, runs := range items {
			dporExpandSink += sched.ExpandDPOR(runs, 2)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
