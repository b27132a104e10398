// Package repro is the public facade of the cooperative-reasoning
// reproduction: build a concurrent program against the virtual runtime,
// execute it under controlled schedules, check cooperability, infer the
// yield annotations it needs, and compare against race and atomicity
// checkers.
//
// The paper behind this library ("Cooperative Reasoning for Preemptive
// Execution", PPoPP 2011) proposes reasoning about preemptive programs
// cooperatively: explicit yield annotations mark the only points where
// thread interference may occur, and a dynamic analysis based on Lipton
// reduction verifies that every execution is equivalent to one that
// context-switches only at yields.
//
// Quick start:
//
//	p := repro.NewProgram("demo")
//	bal := p.Var("balance")
//	mu := p.Mutex("mu")
//	p.SetMain(func(t *repro.T) {
//	    h := t.Fork("w", func(t *repro.T) {
//	        t.Acquire(mu); t.Write(bal, t.Read(bal)+1); t.Release(mu)
//	    })
//	    t.Acquire(mu); t.Write(bal, t.Read(bal)+1); t.Release(mu)
//	    t.Join(h)
//	})
//	rep, err := repro.CheckCooperability(p, 8)
//	// rep.Cooperable, rep.ViolationText, ...
package repro

import (
	"fmt"
	"sort"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/movers"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/velodrome"
	"repro/internal/yield"
)

// Re-exported construction types: programs are built with the virtual
// runtime API from internal/sched.
type (
	// Program is a static description of a concurrent workload.
	Program = sched.Program
	// T is the per-thread handle workload code uses for every operation.
	T = sched.T
	// Proc is the body of a virtual thread.
	Proc = sched.Proc
	// Var is a plain shared variable handle.
	Var = sched.Var
	// Volatile is a volatile shared variable handle.
	Volatile = sched.Volatile
	// Mutex is a reentrant lock handle.
	Mutex = sched.Mutex
	// Cond is a condition-variable handle.
	Cond = sched.Cond
	// Handle identifies a forked thread.
	Handle = sched.Handle
	// Strategy decides where context switches happen.
	Strategy = sched.Strategy
	// Trace is a recorded execution.
	Trace = trace.Trace
	// Violation is a cooperability failure.
	Violation = core.Violation
	// Race is a data-race report.
	Race = race.Race
)

// NewProgram returns an empty program with the given diagnostic name.
func NewProgram(name string) *Program { return sched.NewProgram(name) }

// CooperativeSchedule switches threads only at yield points — the
// semantics the paper's annotations denote.
func CooperativeSchedule() Strategy { return sched.Cooperative{} }

// PreemptiveSchedule preempts every `quantum` operations, round-robin;
// quantum 1 is the most adversarial deterministic schedule.
func PreemptiveSchedule(quantum int) Strategy { return &sched.RoundRobin{Quantum: quantum} }

// RandomSchedule preempts randomly with the given seed; a fixed seed is
// fully reproducible.
func RandomSchedule(seed int64) Strategy { return sched.NewRandom(seed) }

// Run executes p once under the strategy and returns its trace.
func Run(p *Program, s Strategy) (*Trace, error) {
	res, err := sched.Run(p, sched.Options{Strategy: s, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// battery executes the standard schedule battery: cooperative, round-robin
// 1 and 5, and `seeds` random schedules.
func battery(p func() *Program, seeds int) ([]*trace.Trace, *sched.Result, error) {
	var traces []*trace.Trace
	var last *sched.Result
	for _, strat := range sched.BatteryStrategies(seeds) {
		res, err := sched.Run(p(), sched.Options{Strategy: strat, RecordTrace: true})
		if err != nil {
			return nil, nil, fmt.Errorf("repro: %s schedule: %w", strat.Name(), err)
		}
		traces = append(traces, res.Trace)
		last = res
	}
	return traces, last, nil
}

// CoopReport is the outcome of a cooperability check.
type CoopReport struct {
	// Cooperable is true when no schedule produced a violation.
	Cooperable bool
	// Violations are the deduplicated reports across all schedules.
	Violations []Violation
	// ViolationText renders each violation with resolved source locations.
	ViolationText []string
	// Schedules is the number of schedules executed.
	Schedules int
	// YieldFreeFraction is the fraction of observed methods (T.Call spans)
	// containing no yield points.
	YieldFreeFraction float64
}

// CheckCooperability runs p under the standard schedule battery plus
// `seeds` random schedules and checks every trace with the two-pass
// cooperability analysis.
//
// Because a Program is immutable and runs are independent, p is rebuilt
// implicitly by re-running; the caller's program value is reused as-is.
func CheckCooperability(p *Program, seeds int) (*CoopReport, error) {
	traces, _, err := battery(func() *Program { return p }, seeds)
	if err != nil {
		return nil, err
	}
	rep := &CoopReport{Cooperable: true, Schedules: len(traces)}
	seen := map[string]bool{}
	frac := 1.0
	for _, tr := range traces {
		c := core.AnalyzeTwoPass(tr, core.Options{Policy: movers.DefaultPolicy()})
		if f := c.YieldFreeFraction(); f < frac {
			frac = f
		}
		for _, v := range c.Violations() {
			rep.Cooperable = false
			loc := tr.Strings.Name(v.Event.Loc)
			key := fmt.Sprintf("%s|%v|%d", loc, v.Event.Op, v.Event.Target)
			if seen[key] {
				continue
			}
			seen[key] = true
			rep.Violations = append(rep.Violations, v)
			text := v.String()
			if loc != "" {
				text += " at " + loc
			}
			rep.ViolationText = append(rep.ViolationText, text)
		}
	}
	rep.YieldFreeFraction = frac
	return rep, nil
}

// YieldReport is the outcome of yield inference.
type YieldReport struct {
	// Locations are the source locations that need a yield annotation.
	Locations []string
	// Residual counts violations at unknown locations (cannot be fixed by
	// a location-based annotation).
	Residual int
	// Converged is true when the inferred set makes every observed trace
	// cooperable.
	Converged bool
}

// InferYields computes where p needs yield annotations, using the standard
// schedule battery plus `seeds` random schedules.
func InferYields(p *Program, seeds int) (*YieldReport, error) {
	traces, _, err := battery(func() *Program { return p }, seeds)
	if err != nil {
		return nil, err
	}
	res := yield.Infer(traces, core.Options{Policy: movers.DefaultPolicy()}, 0)
	// All traces of one program share one string table per run; resolve
	// each location against the trace that knows it.
	locSet := map[string]bool{}
	for loc := range res.Yields {
		for _, tr := range traces {
			if name := tr.Strings.Name(loc); name != "" {
				locSet[name] = true
				break
			}
		}
	}
	rep := &YieldReport{Residual: res.Residual, Converged: res.Converged}
	for l := range locSet {
		rep.Locations = append(rep.Locations, l)
	}
	sort.Strings(rep.Locations)
	return rep, nil
}

// RaceReport is the outcome of a race check.
type RaceReport struct {
	// RaceFree is true when no schedule exposed a race.
	RaceFree bool
	// Races are deduplicated reports across schedules.
	Races []Race
	// RacyVars names the racing variables.
	RacyVars []string
}

// CheckRaces runs the FastTrack detector over the standard battery plus
// `seeds` random schedules.
func CheckRaces(p *Program, seeds int) (*RaceReport, error) {
	traces, last, err := battery(func() *Program { return p }, seeds)
	if err != nil {
		return nil, err
	}
	rep := &RaceReport{RaceFree: true}
	vars := map[string]bool{}
	for _, tr := range traces {
		d := race.Analyze(tr)
		for _, r := range d.Races() {
			rep.RaceFree = false
			rep.Races = append(rep.Races, r)
		}
		for _, v := range d.RacyVars() {
			vars[last.Symbols.VarName(v)] = true
		}
	}
	for v := range vars {
		rep.RacyVars = append(rep.RacyVars, v)
	}
	sort.Strings(rep.RacyVars)
	return rep, nil
}

// AtomicityReport is the outcome of CheckAtomicity.
type AtomicityReport struct {
	// ReductionViolations counts Atomizer-style (conservative) reports
	// across all schedules, deduplicated by location.
	ReductionViolations int
	// Unserializable counts Velodrome-confirmed non-serializable
	// transaction instances (maximum over schedules).
	Unserializable int
	// Atomic is true when the precise checker found nothing.
	Atomic bool
}

// CheckAtomicity runs both atomicity baselines — reduction-based
// (Atomizer) and transactional-happens-before (Velodrome) — over the
// standard battery plus `seeds` random schedules, treating every T.Call
// span as an intended-atomic block.
func CheckAtomicity(p *Program, seeds int) (*AtomicityReport, error) {
	traces, _, err := battery(func() *Program { return p }, seeds)
	if err != nil {
		return nil, err
	}
	rep := &AtomicityReport{}
	locs := map[string]bool{}
	for _, tr := range traces {
		ac := atom.Analyze(tr, atom.Options{MethodsAtomic: true})
		for _, v := range ac.Violations() {
			locs[tr.Strings.Name(v.Event.Loc)] = true
		}
		if n := len(velodrome.Analyze(tr, velodrome.Options{MethodsAtomic: true})); n > rep.Unserializable {
			rep.Unserializable = n
		}
	}
	rep.ReductionViolations = len(locs)
	rep.Atomic = rep.Unserializable == 0
	return rep, nil
}

// CheckTrace runs the two-pass cooperability analysis over one recorded
// trace and returns its violations.
func CheckTrace(tr *Trace) []Violation {
	return core.AnalyzeTwoPass(tr, core.Options{Policy: movers.DefaultPolicy()}).Violations()
}

// Reducible decides exactly (by memoized search) whether the trace is
// equivalent to a yield-respecting cooperative execution. It is
// exponential in the worst case and meant for small traces — the checker
// is its linear-time conservative approximation.
func Reducible(tr *Trace) (bool, error) { return equiv.Reducible(tr, 0) }

// CooperativeWitness returns an equivalent cooperative reordering of the
// trace — checkable evidence for a positive Reducible answer — or nil when
// the trace is not reducible.
func CooperativeWitness(tr *Trace) (*Trace, error) { return equiv.CooperativeWitness(tr, 0) }

// Explore systematically enumerates schedules of p (depth-first with the
// given preemption bound), invoking visit with each run's trace or error.
// visit returning false stops the search. It returns the number of runs.
func Explore(p *Program, maxRuns, maxPreemptions int, visit func(tr *Trace, err error) bool) (int, error) {
	rep, err := sched.Explore(p, sched.ExploreOptions{
		MaxRuns:        maxRuns,
		MaxPreemptions: maxPreemptions,
		RecordTrace:    true,
		Visit: func(res *sched.Result, err error) bool {
			var tr *Trace
			if res != nil {
				tr = res.Trace
			}
			return visit(tr, err)
		},
	})
	if err != nil {
		return 0, err
	}
	return rep.Runs, nil
}

// ExploreReduced is Explore with dynamic partial-order reduction: it
// re-runs only where the observed traces exhibit cross-thread conflicts,
// typically visiting far fewer schedules. It is a bug-hunting heuristic,
// not a complete search: it never reaches an outcome Explore misses, but
// it can miss outcomes that Explore reaches. Prefer it for bug hunting;
// prefer Explore (exhaustive within the bound) for certification.
func ExploreReduced(p *Program, maxRuns, maxPreemptions int, visit func(tr *Trace, err error) bool) (int, error) {
	rep, err := sched.ExploreDPOR(p, sched.ExploreOptions{
		MaxRuns:        maxRuns,
		MaxPreemptions: maxPreemptions,
		RecordTrace:    true,
		Visit: func(res *sched.Result, err error) bool {
			var tr *Trace
			if res != nil {
				tr = res.Trace
			}
			return visit(tr, err)
		},
	})
	if err != nil {
		return 0, err
	}
	return rep.Runs, nil
}

// Certificate is the outcome of an exhaustive cooperability certification.
type Certificate struct {
	// Cooperable is true when every explored schedule passed the checker.
	Cooperable bool
	// Schedules is the number of schedules explored.
	Schedules int
	// Exhausted is true when the search covered every schedule within the
	// preemption bound (it did not hit MaxRuns).
	Exhausted bool
	// Counterexample holds the first violating trace, when any.
	Counterexample *Trace
	// Violations are the counterexample's reports.
	Violations []Violation
	// Status records how the underlying exploration ended ("complete",
	// "budget-exhausted", "deadline", "cancelled", "worker-panic").
	Status string
	// Abandoned counts schedule prefixes queued but never explored
	// because the search was cut off.
	Abandoned int
}

// CertifyCooperability exhaustively explores every schedule of p with up to
// maxPreemptions forced context switches (bounded up to maxRuns runs,
// 0 = 10000) and checks each trace. Unlike CheckCooperability's sampled
// battery, a passing certificate is a proof over the entire bounded
// schedule space — the strongest guarantee this tool offers, practical for
// small programs and unit-test-sized models.
func CertifyCooperability(p *Program, maxRuns, maxPreemptions int) (*Certificate, error) {
	cert := &Certificate{Cooperable: true}
	if maxRuns <= 0 {
		maxRuns = 10000
	}
	var runErr error
	rep, err := sched.Explore(p, sched.ExploreOptions{
		MaxRuns:        maxRuns,
		MaxPreemptions: maxPreemptions,
		RecordTrace:    true,
		Visit: func(res *sched.Result, err error) bool {
			if err != nil {
				runErr = err
				return false
			}
			if vs := CheckTrace(res.Trace); len(vs) > 0 {
				cert.Cooperable = false
				cert.Counterexample = res.Trace
				cert.Violations = vs
				return false
			}
			return true
		},
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	cert.Schedules = rep.Runs
	cert.Status = string(rep.Status)
	cert.Abandoned = rep.Abandoned
	// The DFS exhausted the bounded space iff it drained the frontier
	// without a cutoff (early stops on a counterexample leave Abandoned
	// nonzero, but the certificate is already negative then).
	cert.Exhausted = cert.Counterexample == nil &&
		rep.Status == sched.StatusComplete && rep.Abandoned == 0
	return cert, nil
}
