package harness

import (
	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/lockset"
	"repro/internal/movers"
	"repro/internal/obs/flight"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/velodrome"
)

// Fused-pass spans, counted into harness.fused.pass{1,2}.{count,ns} on
// every run and recorded when the flight recorder is on.
var (
	mFusedPass1 = flight.NewMeter(flight.CatHarness, "fused-pass1", "harness.fused.pass1")
	mFusedPass2 = flight.NewMeter(flight.CatHarness, "fused-pass2", "harness.fused.pass2")
)

// FusedRunner runs every Table 3 checker over a recorded trace in two
// scans instead of the six-plus the per-checker Analyze functions cost:
//
//   - Pass 1 feeds FastTrack, Eraser, and Velodrome one shared batched
//     scan (sched.FeedTrace), so the trace is decoded and walked once and
//     each event reaches all three analyses while it is still
//     cache-resident.
//   - Pass 2 fuses Atomizer and the two-pass cooperability checker,
//     both reusing pass 1's race results: the coop checker gets the
//     racy-variable set (identical to race.RacyVarsOf — FastTrack is
//     deterministic), and Atomizer gets the per-variable first-race
//     indices (RaceOnsets), which replay its online classification —
//     first racy access still Both — without a second embedded detector.
//
// Warnings are byte-identical to the per-checker Analyze functions.
//
// The zero value is ready to use; it has no settings.
type FusedRunner struct{}

// FusedAnalysis bundles the per-trace results of one fused run. The
// checker instances are the live analyses — read their accessors exactly
// as if each had run alone via its package Analyze function.
type FusedAnalysis struct {
	Race    *race.Detector
	Lockset *lockset.Checker
	Atom    *atom.Checker
	// VeloViolations is Velodrome's result. Its checker is borrowed for
	// pass 1 and released once the violations and metrics are read
	// (velodrome.Borrow), so it is not kept here.
	VeloViolations []velodrome.Violation
	// Coop is the two-pass cooperability checker under the default policy
	// with no yield set — the "coop-before" column.
	Coop *core.Checker
	// KnownRaces is pass 1's racy-variable set, equal to
	// race.RacyVarsOf(tr); reuse it for further coop passes over the same
	// trace (AnalyzeCoop) instead of re-running race detection.
	KnownRaces map[uint64]bool
}

// Analyze runs the fused pipeline over one recorded trace. Metrics are
// flushed once per checker, matching the per-checker Analyze functions.
func (FusedRunner) Analyze(tr *trace.Trace) *FusedAnalysis {
	var ftr *flight.Track
	if fr := flight.Active(); fr != nil {
		ftr = fr.Acquire("fused")
		defer fr.Release(ftr)
	}

	d := race.New()
	ls := lockset.New()
	vc := velodrome.Borrow(velodrome.Options{MethodsAtomic: true})
	sp1 := mFusedPass1.Begin(ftr, 0, flight.A("events", int64(tr.Len())))
	sched.FeedTrace(tr, d, ls, vc)
	vios := vc.Violations()
	d.FlushMetrics()
	ls.FlushMetrics()
	vc.FlushMetrics(len(vios))
	vc.Release()
	sp1.End()

	known := d.RacyVarSet()
	ac := atom.New(atom.Options{MethodsAtomic: true, RaceOnsets: d.RaceOnsets()})
	coop := core.New(core.Options{Policy: movers.DefaultPolicy(), KnownRaces: known})
	sp2 := mFusedPass2.Begin(ftr, 0, flight.A("events", int64(tr.Len())))
	sched.FeedTrace(tr, ac, coop)
	coop.FlushMetrics()
	sp2.End()

	return &FusedAnalysis{
		Race:           d,
		Lockset:        ls,
		Atom:           ac,
		VeloViolations: vios,
		Coop:           coop,
		KnownRaces:     known,
	}
}

// AnalyzeCoop runs another cooperability pass over the same trace (e.g.
// with an inferred yield set), reusing the fused racy-variable set: one
// scan instead of a race pass plus a coop pass. opts.KnownRaces, when set,
// wins over the cached set.
func (a *FusedAnalysis) AnalyzeCoop(tr *trace.Trace, opts core.Options) *core.Checker {
	if opts.KnownRaces == nil {
		opts.KnownRaces = a.KnownRaces
	}
	return core.Analyze(tr, opts)
}
