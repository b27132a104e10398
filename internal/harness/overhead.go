package harness

import (
	"fmt"
	"time"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/lockset"
	"repro/internal/movers"
	"repro/internal/race"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// overheadConfigs enumerates the instrumentation stacks timed by Table 4 /
// Figure 1, in increasing weight.
var overheadConfigs = []struct {
	name  string
	setup func(o *sched.Options)
}{
	{"bare", func(o *sched.Options) { o.DisableLocations = true }},
	{"count", func(o *sched.Options) {
		o.DisableLocations = true
		o.Observers = []sched.Observer{&sched.CountObserver{}}
	}},
	{"trace", func(o *sched.Options) { o.RecordTrace = true }},
	{"race", func(o *sched.Options) {
		o.Observers = []sched.Observer{race.New()}
	}},
	{"coop", func(o *sched.Options) {
		o.Observers = []sched.Observer{core.New(core.Options{Policy: movers.DefaultPolicy()})}
	}},
	{"full", func(o *sched.Options) {
		o.RecordTrace = true
		o.Observers = []sched.Observer{
			race.New(),
			core.New(core.Options{Policy: movers.DefaultPolicy()}),
			lockset.New(),
			atom.New(atom.Options{MethodsAtomic: true}),
		}
	}},
}

// overheadWorkloads are the compute-heavy kernels used for timing, with
// sizes scaled up from the correctness defaults.
func overheadWorkloads(cfg Config) []struct {
	spec workloads.Spec
	size int
} {
	scale := 3
	if cfg.Quick {
		scale = 1
	}
	names := []struct {
		name string
		size int
	}{
		{"sor", 10 * scale},
		{"moldyn", 10 * scale},
		{"montecarlo", 40 * scale},
		{"series", 200 * scale},
		{"crypt", 120 * scale},
	}
	var out []struct {
		spec workloads.Spec
		size int
	}
	for _, n := range names {
		if s, ok := workloads.Get(n.name); ok {
			out = append(out, struct {
				spec workloads.Spec
				size int
			}{s, n.size})
		}
	}
	return out
}

// timeRun executes one configuration `reps` times and returns the minimum
// wall-clock duration and the event count.
func timeRun(spec workloads.Spec, size int, setup func(*sched.Options), reps int) (time.Duration, int, error) {
	best := time.Duration(1<<62 - 1)
	events := 0
	for r := 0; r < reps; r++ {
		opts := sched.Options{Strategy: sched.NewRandom(1)}
		setup(&opts)
		start := time.Now()
		res, err := sched.Run(spec.New(0, size), opts)
		if err != nil {
			return 0, 0, fmt.Errorf("harness: timing %s: %w", spec.Name, err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
		events = res.Events
	}
	return best, events, nil
}

// OverheadRow is one workload's timing across instrumentation stacks.
type OverheadRow struct {
	Name     string
	Events   int
	Times    map[string]time.Duration
	Slowdown map[string]float64
}

// Overhead measures Table 4's data: wall time per instrumentation stack.
// It always runs sequentially, whatever cfg.Parallel says: concurrent
// workloads would contend for the cores being timed.
func Overhead(cfg Config) ([]OverheadRow, error) {
	cfg = cfg.sequentialTiming()
	_ = cfg.pool // timing loops below are deliberately plain sequential code
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	var rows []OverheadRow
	for _, w := range overheadWorkloads(cfg) {
		row := OverheadRow{
			Name:     w.spec.Name,
			Times:    map[string]time.Duration{},
			Slowdown: map[string]float64{},
		}
		for _, oc := range overheadConfigs {
			d, events, err := timeRun(w.spec, w.size, oc.setup, reps)
			if err != nil {
				return nil, err
			}
			row.Times[oc.name] = d
			row.Events = events
		}
		base := row.Times["bare"]
		for _, oc := range overheadConfigs {
			if base > 0 {
				row.Slowdown[oc.name] = float64(row.Times[oc.name]) / float64(base)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4 renders the instrumentation-overhead table.
func Table4(cfg Config) (*report.Table, error) {
	pb := capturePhases()
	rows, err := Overhead(cfg)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 4: instrumentation overhead (slowdown vs bare virtual runtime)",
		"benchmark", "events", "bare(µs)", "count", "trace", "race", "coop", "full")
	for _, r := range rows {
		t.AddRow(r.Name,
			report.Itoa(r.Events),
			report.I64(r.Times["bare"].Microseconds()),
			report.Slowdown(r.Slowdown["count"]),
			report.Slowdown(r.Slowdown["trace"]),
			report.Slowdown(r.Slowdown["race"]),
			report.Slowdown(r.Slowdown["coop"]),
			report.Slowdown(r.Slowdown["full"]),
		)
	}
	t.AddNote("bare = no observers, no location capture; coop = online cooperability (embedded FastTrack)")
	t.AddNote("minimum of repeated runs; seeded-random schedule held fixed across stacks")
	pb.note(t)
	return t, nil
}

// Fig1 renders the overhead data as a bar chart of full-pipeline slowdown.
func Fig1(cfg Config) (*report.Chart, error) {
	rows, err := Overhead(cfg)
	if err != nil {
		return nil, err
	}
	c := report.NewChart("Figure 1: full-pipeline slowdown per benchmark", "slowdown vs bare")
	for _, r := range rows {
		c.AddWithText(r.Name, r.Slowdown["full"], report.Slowdown(r.Slowdown["full"]))
	}
	c.AddNote("full = trace recording + FastTrack + cooperability + lockset + Atomizer")
	return c, nil
}
