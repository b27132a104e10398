// Package harness drives the reproduction experiments: it runs the
// workload suite under controlled schedules, feeds the traces to the
// checkers, and regenerates every table and figure of the evaluation (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded output).
package harness

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config scopes an experiment run.
type Config struct {
	// Seeds is the number of seeded-random schedules per workload on top
	// of the deterministic cooperative and round-robin ones (default 4).
	Seeds int
	// Threads/Size override workload defaults when positive.
	Threads int
	Size    int
	// Workloads restricts the suite (nil = all registered).
	Workloads []string
	// Quick shrinks the overhead/scaling experiments for test runs.
	Quick bool
	// Parallel is the experiment's single concurrency knob: the total
	// number of OS-parallel workers shared by every fan-out level
	// (workloads, each workload's strategy battery, per-figure seed
	// sweeps). Real OS parallelism only wraps whole deterministic virtual
	// runs, and results are always merged in canonical order, so any value
	// produces byte-identical tables and figures. 0 means GOMAXPROCS;
	// 1 forces fully sequential execution. The timing experiments
	// (Table 4 / Figure 1, Figure 2) hard-set 1 — see sequentialTiming.
	Parallel int
	// Ctx, when non-nil, cancels the experiment's remaining fan-out
	// cooperatively: the shared pool stops handing out new tasks once it
	// fires (in-flight tasks run to completion), and the first skipped
	// index reports the context error.
	Ctx context.Context

	// pool is the shared worker budget; created once per experiment entry
	// point (ensurePool) and propagated by value-copying the Config into
	// every nested helper.
	pool *workPool
}

func (c Config) seeds() int {
	if c.Seeds <= 0 {
		return 4
	}
	return c.Seeds
}

// ensurePool installs the shared worker pool on first use.
func (c *Config) ensurePool() {
	if c.pool == nil {
		c.pool = newWorkPool(c.Parallel)
		c.pool.ctx = c.Ctx
	}
}

// timingSequentialized counts sequentialTiming calls; tests assert the
// timing experiments actually normalize their configs through it.
var timingSequentialized atomic.Int64

// sequentialTiming returns cfg pinned to sequential execution, discarding
// any wider pool. The wall-clock experiments compare instrumentation
// stacks against each other; letting other workloads share the machine
// while one is being timed would corrupt exactly the numbers the tables
// exist to report, so Table4/Fig1/Fig2 enforce (not just document) this.
func (c Config) sequentialTiming() Config {
	timingSequentialized.Add(1)
	c.Parallel = 1
	c.pool = newWorkPool(1)
	c.pool.ctx = c.Ctx
	return c
}

// specs resolves the configured workload subset.
func (c Config) specs() ([]workloads.Spec, error) {
	if len(c.Workloads) == 0 {
		return workloads.All(), nil
	}
	var out []workloads.Spec
	for _, name := range c.Workloads {
		s, ok := workloads.Get(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q (have %v)", name, workloads.Names())
		}
		out = append(out, s)
	}
	return out, nil
}

// Collected bundles the traces of one workload across schedules.
type Collected struct {
	Spec    workloads.Spec
	Traces  []*trace.Trace
	Results []*sched.Result
}

// Collect executes the workload under the standard schedule battery —
// cooperative, round-robin quantum 1 and 5, and cfg.Seeds random seeds —
// recording full traces. The battery's runs are independent deterministic
// executions, so they fan out across cfg's shared worker pool; results
// keep the canonical strategy order regardless of parallelism.
func Collect(spec workloads.Spec, cfg Config) (*Collected, error) {
	cfg.ensurePool()
	strategies := sched.BatteryStrategies(cfg.seeds())
	results, err := mapIdx(cfg.pool, len(strategies), func(i int) (*sched.Result, error) {
		strat := strategies[i]
		res, err := sched.Run(spec.New(cfg.Threads, cfg.Size), sched.Options{Strategy: strat, RecordTrace: true})
		if err != nil {
			return nil, fmt.Errorf("harness: %s under %s: %w", spec.Name, strat.Name(), err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	col := &Collected{Spec: spec, Results: results}
	for _, res := range results {
		col.Traces = append(col.Traces, res.Trace)
	}
	return col, nil
}
