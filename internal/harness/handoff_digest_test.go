package harness

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestHandoffDifferentialWorkloads runs every registered workload through
// Collect's standard battery (cooperative, round-robin quantum 1 and 5,
// two random seeds) at quick size and compares each run with its row in
// internal/sched's digest golden, which the legacy two-hop handoff
// recorded: event count, switch accounting, final state, the schedule and
// event hash and the location hash must all match. Collect's parallel
// fan-out must leave every run as a plain sequential run recorded it.
func TestHandoffDifferentialWorkloads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "sched", "testdata", "digest.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if label, _, _ := strings.Cut(row, " "); strings.HasPrefix(label, "workload/") {
			want[label] = row
		}
	}
	strategies := []sched.Strategy{
		sched.Cooperative{},
		&sched.RoundRobin{Quantum: 1},
		&sched.RoundRobin{Quantum: 5},
		sched.NewRandom(1),
		sched.NewRandom(2),
	}
	rows := 0
	for _, spec := range workloads.All() {
		col, err := Collect(spec, Config{Seeds: 2, Size: quickSize(spec)})
		if err != nil {
			t.Fatal(err)
		}
		if len(col.Results) != len(strategies) {
			t.Fatalf("%s: Collect ran %d schedules, want %d", spec.Name, len(col.Results), len(strategies))
		}
		for i, res := range col.Results {
			label := fmt.Sprintf("workload/%s/%s/seed=%d", spec.Name, strategies[i].Name(), strategies[i].Seed())
			if got := digestRow(label, res); got != want[label] {
				t.Errorf("%s differs from the digest golden:\n got  %s\n want %s", label, got, want[label])
			}
			rows++
		}
	}
	if rows != len(want) {
		t.Fatalf("compared %d runs, the golden has %d workload rows", rows, len(want))
	}
}

// quickSize shrinks the heavyweight workloads the same way Config.Quick
// does, keeping the sweep fast.
func quickSize(spec workloads.Spec) int {
	if spec.DefaultSize > 8 {
		return spec.DefaultSize / 4
	}
	return 0
}

// digestRow renders a completed run in the row format of internal/sched's
// digest golden.
func digestRow(label string, res *sched.Result) string {
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
	return fmt.Sprintf("%s events=%d switches=%d preemptions=%d vars=%v vols=%v trace=%016x locs=%016x",
		label, res.Events, res.Stats.Switches, res.Stats.Preemptions, res.FinalVars, res.FinalVolatiles, sh.Sum64(), lh.Sum64())
}
