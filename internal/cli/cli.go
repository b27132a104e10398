// Package cli holds the small helpers shared by the command-line tools:
// strategy parsing and the standard schedule battery over a registered
// workload.
package cli

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Battery telemetry shares the explorer's metric names: each battery run
// is one schedule replay, and its instrumented events are the "states"
// the progress reporter rates. Handles are pre-resolved per the hot-path
// rule (DESIGN.md "Observability").
var (
	mBatteryRuns      = obs.Default.Counter("explore.runs")
	mBatteryStates    = obs.Default.Counter("explore.states")
	mBatteryCancelled = obs.Default.Counter("explore.cancelled")
	mBatteryDeadline  = obs.Default.Counter("explore.deadline")
	mBatteryBudget    = obs.Default.Counter("explore.budget.exhausted")
	mBattery          = flight.NewMeter(flight.CatCLI, "battery", "battery")
)

// ParseStrategy builds a scheduling strategy from tool flags:
// "cooperative", "roundrobin" (with quantum), "random" or "pct" (with
// seed).
func ParseStrategy(name string, seed int64, quantum int) (sched.Strategy, error) {
	switch name {
	case "cooperative", "coop":
		return sched.Cooperative{}, nil
	case "roundrobin", "rr":
		return &sched.RoundRobin{Quantum: quantum}, nil
	case "random", "rand":
		return sched.NewRandom(seed), nil
	case "pct":
		return &sched.PCT{SeedVal: seed, Depth: 3}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (cooperative|roundrobin|random|pct)", name)
	}
}

// Battery runs the named workload under the standard schedule battery
// (cooperative, round-robin 1 and 5, `seeds` random schedules) and returns
// the recorded traces with their run results.
func Battery(name string, seeds, threads, size int) ([]*trace.Trace, []*sched.Result, error) {
	traces, results, _, err := BatteryBudget(sched.Budget{}, name, seeds, threads, size)
	return traces, results, err
}

// BatteryBudget is Battery under a sched.Budget: the loop checks the
// budget between runs, each run carries the budget's context so even a
// single long execution is interruptible, and a cutoff returns the
// completed prefix of the battery with the status explaining why — an
// explicit partial result instead of an error or a silent truncation.
func BatteryBudget(bud sched.Budget, name string, seeds, threads, size int) ([]*trace.Trace, []*sched.Result, sched.Status, error) {
	spec, ok := workloads.Get(name)
	if !ok {
		return nil, nil, sched.StatusComplete, fmt.Errorf("unknown workload %q; available: %v", name, workloads.Names())
	}
	strategies := sched.BatteryStrategies(seeds)
	tr := sched.StartBudget(bud)
	status := sched.StatusComplete
	var ftrack *flight.Track
	if fr := flight.Active(); fr != nil {
		ftrack = fr.Track("battery")
	}
	batSpan := mBattery.Begin(ftrack, 0,
		flight.A("seeds", int64(seeds)), flight.A("strategies", int64(len(strategies))))
	defer func() { batSpan.EndStr(string(status)) }()
	var traces []*trace.Trace
	var results []*sched.Result
	for _, strat := range strategies {
		if st := tr.Cutoff(); st != "" {
			status = st
			ftrack.Instant(flight.CatCLI, "cutoff", string(st))
			break
		}
		var runSpan flight.Span
		if ftrack != nil {
			runSpan = ftrack.Begin(flight.CatSched, "schedule", batSpan.ID())
		}
		res, err := sched.Run(spec.New(threads, size), sched.Options{
			Strategy:    strat,
			RecordTrace: true,
			Ctx:         tr.RunContext(),
		})
		if ftrack != nil {
			sched.EndRunSpan(runSpan, res, err)
		}
		if err != nil {
			if errors.Is(err, sched.ErrCancelled) {
				// The run itself was interrupted mid-flight; its partial
				// trace is a cutoff artifact, not a result.
				status = tr.CancelStatus()
				break
			}
			return nil, nil, status, fmt.Errorf("%s under %s: %w", name, strat.Name(), err)
		}
		mBatteryRuns.Inc()
		mBatteryStates.Add(int64(res.Events))
		tr.AddStates(int64(res.Events))
		traces = append(traces, res.Trace)
		results = append(results, res)
	}
	switch status {
	case sched.StatusCancelled:
		mBatteryCancelled.Inc()
	case sched.StatusDeadline:
		mBatteryDeadline.Inc()
	case sched.StatusBudget:
		mBatteryBudget.Inc()
	}
	return traces, results, status, nil
}
