package sched_test

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/workloads"
)

// longRunGolden pins, in digestGolden's row format, runs long enough to
// span many of the runtime's staging chunks: lufact and sor at 8× their
// default size under BatteryStrategies(4), up to ~116k events per run,
// where digestGolden's longest run has about a thousand. It was recorded
// while every run still appended its events to a growing trace and
// schedule, so it pins that staging them in chunks changed no event, id,
// location or schedule.
// `go test ./internal/sched -run LongRunDigest -update-golden` re-records.
const longRunGolden = "testdata/longrun.golden"

// longRunRows runs every long golden run and returns its rows.
func longRunRows() []string {
	var rows []string
	for _, name := range []string{"lufact", "sor"} {
		spec, ok := workloads.Get(name)
		if !ok {
			panic("unknown workload " + name)
		}
		for _, strat := range sched.BatteryStrategies(4) {
			res, err := sched.Run(spec.New(0, 8*spec.DefaultSize), sched.Options{Strategy: strat, RecordTrace: true})
			label := fmt.Sprintf("long/%s/size=%d/%s/seed=%d", name, 8*spec.DefaultSize, strat.Name(), strat.Seed())
			rows = append(rows, digestRow(label, res, err))
		}
	}
	return rows
}

// TestLongRunDigest compares every long run, whole rows, with the golden.
func TestLongRunDigest(t *testing.T) {
	got := longRunRows()
	compareRows(t, got, readGolden(t, longRunGolden, got))
}
