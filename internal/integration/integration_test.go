// Package integration runs the cross-cutting invariants of the whole tool
// stack over the full workload suite with a larger schedule battery than
// the per-package unit tests use. These tests are the repository's "does
// the system hang together" safety net; run with -short to skip the slow
// ones.
package integration

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/lockorder"
	"repro/internal/lockset"
	"repro/internal/movers"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/velodrome"
	"repro/internal/workloads"
	"repro/internal/yield"
)

// battery runs the workload under a wide strategy battery.
func battery(t *testing.T, spec workloads.Spec, seeds int) []*trace.Trace {
	t.Helper()
	strategies := []sched.Strategy{
		sched.Cooperative{},
		&sched.RoundRobin{Quantum: 1},
		&sched.RoundRobin{Quantum: 3},
		&sched.RoundRobin{Quantum: 9},
	}
	for s := 1; s <= seeds; s++ {
		strategies = append(strategies, sched.NewRandom(int64(s)*31+1))
	}
	var traces []*trace.Trace
	for _, strat := range strategies {
		res, err := sched.Run(spec.New(0, 0), sched.Options{Strategy: strat, RecordTrace: true})
		if err != nil {
			t.Fatalf("%s under %s: %v", spec.Name, strat.Name(), err)
		}
		traces = append(traces, res.Trace)
	}
	return traces
}

// TestSuiteInvariants checks, per workload over a wide battery:
//
//  1. Every trace validates structurally.
//  2. Yield inference converges and its set makes every trace cooperable.
//  3. The inferred set survives minimization unchanged (it is minimal).
//  4. Every checker runs to completion on every trace (no panics), and
//     their event counters agree.
//  5. Lock-order analysis reports no unguarded cycles (every workload uses
//     ordered or gated locking by construction).
func TestSuiteInvariants(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			traces := battery(t, spec, seeds)
			for _, tr := range traces {
				if err := tr.Validate(); err != nil {
					t.Fatalf("invalid trace: %v", err)
				}
			}
			opts := core.Options{Policy: movers.DefaultPolicy()}
			inf := yield.Infer(traces, opts, 0)
			if !inf.Converged {
				t.Fatalf("inference did not converge (residual %d)", inf.Residual)
			}
			for _, tr := range traces {
				o := opts
				o.Yields = inf.Yields
				if c := core.AnalyzeTwoPass(tr, o); !c.Cooperable() {
					t.Fatalf("not cooperable after inference: %v", c.Violations())
				}
			}
			// Inference can over-approximate: a yield collected early in a
			// round may render a later site redundant (elevator exhibits
			// this). Minimization must therefore never grow the set, and
			// its result must remain sufficient.
			minimal := yield.Minimize(traces, opts, inf.Yields)
			if len(minimal) > len(inf.Yields) {
				t.Errorf("minimization grew the set: %d -> %d", len(inf.Yields), len(minimal))
			}
			for _, tr := range traces {
				o := opts
				o.Yields = minimal
				if c := core.AnalyzeTwoPass(tr, o); !c.Cooperable() {
					t.Fatalf("minimal set insufficient: %v", c.Violations())
				}
			}
			lo := lockorder.New()
			for _, tr := range traces {
				n := tr.Len()
				if d := race.Analyze(tr); d.Events() != n {
					t.Fatalf("fasttrack consumed %d of %d events", d.Events(), n)
				}
				if ls := lockset.Analyze(tr); ls.Events() != n {
					t.Fatalf("lockset consumed %d of %d events", ls.Events(), n)
				}
				if ac := atom.Analyze(tr, atom.Options{MethodsAtomic: true}); ac.Events() != n {
					t.Fatalf("atomizer consumed %d of %d events", ac.Events(), n)
				}
				velodrome.Analyze(tr, velodrome.Options{MethodsAtomic: true})
				for _, e := range tr.Events {
					lo.Event(e)
				}
			}
			if ws := lo.Unguarded(); len(ws) != 0 {
				t.Errorf("unexpected potential deadlocks: %v", ws)
			}
		})
	}
}

// TestReplayAcrossSuite replays every workload's recorded schedule and
// demands a bit-identical trace — the reproducibility guarantee end users
// rely on when sharing failing schedules.
func TestReplayAcrossSuite(t *testing.T) {
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			orig, err := sched.Run(spec.New(0, 0), sched.Options{Strategy: sched.NewRandom(99), RecordTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			schedule := make([]trace.TID, len(orig.Trace.Events))
			for i, e := range orig.Trace.Events {
				schedule[i] = e.Tid
			}
			rep, err := sched.Run(spec.New(0, 0), sched.Options{Strategy: sched.NewReplay(schedule), RecordTrace: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(orig.Trace.Events) != len(rep.Trace.Events) {
				t.Fatalf("replay length %d != %d", len(rep.Trace.Events), len(orig.Trace.Events))
			}
			for i := range orig.Trace.Events {
				if orig.Trace.Events[i] != rep.Trace.Events[i] {
					t.Fatalf("replay diverged at event %d", i)
				}
			}
		})
	}
}

// TestBuggyWorkloadsCaughtBySomeChecker asserts the planted bugs never go
// completely unnoticed across the battery.
func TestBuggyWorkloadsCaughtBySomeChecker(t *testing.T) {
	for _, spec := range workloads.BuggyOnes() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			traces := battery(t, spec, 6)
			caught := false
			for _, tr := range traces {
				if len(race.Analyze(tr).Races()) > 0 {
					caught = true
				}
				if !core.AnalyzeTwoPass(tr, core.Options{Policy: movers.DefaultPolicy()}).Cooperable() {
					caught = true
				}
			}
			if !caught {
				t.Fatal("no checker noticed the planted bug on any schedule")
			}
		})
	}
}
