package sched

import "testing"

// maxAllocsPerReplay bounds the heap allocations of one replay of
// TestExploreReplayAllocs's search: the objects a Result keeps (the
// trace, its string table, the symbols, the final values, the schedule),
// the prefixes the run's expansion pushes, and the workload's own
// closures. It read 17.2 when the search began to recycle its runtime,
// against 61.0 when every replay built its runtime, strategy and location
// cache afresh.
const maxAllocsPerReplay = 20

// TestExploreReplayAllocs pins the allocations per replay of an Explore,
// so that a change that brings back per-replay scratch allocation fails
// here, without waiting for a benchmark.
func TestExploreReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p := counterProgram(2, 2, true)
	runs := 0
	perSearch := testing.AllocsPerRun(5, func() {
		rep, err := Explore(p, ExploreOptions{
			MaxRuns:        4000,
			MaxPreemptions: 2,
			RecordTrace:    true,
			Visit:          func(*Result, error) bool { return true },
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = rep.Runs
	})
	if perRun := perSearch / float64(runs); perRun > maxAllocsPerReplay {
		t.Fatalf("%.1f allocations per replay over %d replays, want at most %d", perRun, runs, maxAllocsPerReplay)
	}
}
