package harness

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lockset"
	"repro/internal/movers"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/velodrome"
	"repro/internal/workloads"
)

// legacyAnalysis runs every Table 3 checker the pre-fusion way: one
// per-event Analyze pass per checker, race detection re-run for the
// two-pass cooperability checker. The differential tests hold the fused
// engine to byte-equality against this.
type legacyAnalysis struct {
	racyVars []uint64
	lsVars   []uint64
	atomViol []atom.Violation
	atomBlk  int
	veloViol []velodrome.Violation
	coopViol []core.Violation
	known    map[uint64]bool
}

func analyzeLegacy(tr *trace.Trace) legacyAnalysis {
	d := race.Analyze(tr)
	ls := lockset.Analyze(tr)
	ac := atom.Analyze(tr, atom.Options{MethodsAtomic: true})
	vv := velodrome.Analyze(tr, velodrome.Options{MethodsAtomic: true})
	cc := core.AnalyzeTwoPass(tr, core.Options{Policy: movers.DefaultPolicy()})
	return legacyAnalysis{
		racyVars: d.RacyVars(),
		lsVars:   ls.WarnedVars(),
		atomViol: ac.Violations(),
		atomBlk:  ac.Blocks(),
		veloViol: vv,
		coopViol: cc.Violations(),
		known:    race.RacyVarsOf(tr),
	}
}

// diffFused holds FusedRunner to the legacy per-event results.
func diffFused(t *testing.T, label string, tr *trace.Trace) {
	t.Helper()
	diffAnalysis(t, label, FusedRunner{}.Analyze(tr), analyzeLegacy(tr))
}

// diffWindows feeds every Table 3 checker, wired as FusedRunner wires them,
// the trace in windows of n events through ObserveBatch, so that batch
// boundaries fall at odd places, and holds the results to the legacy
// per-event ones.
func diffWindows(t *testing.T, label string, tr *trace.Trace, n int) {
	t.Helper()
	feed := func(observers ...sched.Observer) {
		for start := 0; start < tr.Len(); start += n {
			batch := tr.Events[start:min(start+n, tr.Len())]
			for _, o := range observers {
				o.ObserveBatch(batch)
			}
		}
	}
	d, ls := race.New(), lockset.New()
	vc := velodrome.Borrow(velodrome.Options{MethodsAtomic: true})
	defer vc.Release()
	feed(d, ls, vc)
	known := d.RacyVarSet()
	ac := atom.New(atom.Options{MethodsAtomic: true, RaceOnsets: d.RaceOnsets()})
	coop := core.New(core.Options{Policy: movers.DefaultPolicy(), KnownRaces: known})
	feed(ac, coop)
	fa := &FusedAnalysis{
		Race: d, Lockset: ls, Atom: ac,
		VeloViolations: vc.Violations(), Coop: coop, KnownRaces: known,
	}
	diffAnalysis(t, label, fa, analyzeLegacy(tr))
}

// diffAnalysis requires every checker of fa to agree with want.
func diffAnalysis(t *testing.T, label string, fa *FusedAnalysis, want legacyAnalysis) {
	t.Helper()
	if got := fa.Race.RacyVars(); !reflect.DeepEqual(got, want.racyVars) {
		t.Fatalf("%s: racy vars: fused %v, legacy %v", label, got, want.racyVars)
	}
	if got := fa.Lockset.WarnedVars(); !reflect.DeepEqual(got, want.lsVars) {
		t.Fatalf("%s: lockset warned vars: fused %v, legacy %v", label, got, want.lsVars)
	}
	if got := fa.Atom.Violations(); !reflect.DeepEqual(got, want.atomViol) {
		t.Fatalf("%s: atom violations: fused %v, legacy %v", label, got, want.atomViol)
	}
	if got := fa.Atom.Blocks(); got != want.atomBlk {
		t.Fatalf("%s: atom blocks: fused %d, legacy %d", label, got, want.atomBlk)
	}
	if got := fa.VeloViolations; !reflect.DeepEqual(got, want.veloViol) {
		t.Fatalf("%s: velodrome violations: fused %v, legacy %v", label, got, want.veloViol)
	}
	if got := fa.Coop.Violations(); !reflect.DeepEqual(got, want.coopViol) {
		t.Fatalf("%s: coop violations: fused %v, legacy %v", label, got, want.coopViol)
	}
	if !reflect.DeepEqual(fa.KnownRaces, want.known) {
		t.Fatalf("%s: racy set: fused %v, race.RacyVarsOf %v", label, fa.KnownRaces, want.known)
	}
}

// TestFusedDifferentialFuzz sweeps 200 generated programs through the
// fused batched pipeline and the legacy per-event path; every checker must
// produce the identical violation set. FusedRunner runs every seed; odd
// seeds also feed the checkers windows of 3-15 events, so that batch
// boundaries fall mid-transaction.
func TestFusedDifferentialFuzz(t *testing.T) {
	const seeds = 200
	for seed := int64(0); seed < seeds; seed++ {
		cfg := gen.Config{
			Threads:      2 + int(seed%4),
			Vars:         3 + int(seed%3),
			OpsPerThread: 10 + int(seed%8),
		}
		res, err := sched.Run(gen.Program(seed, cfg), sched.Options{
			Strategy:    sched.NewRandom(seed),
			RecordTrace: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		diffFused(t, fmt.Sprintf("seed %d", seed), res.Trace)
		if seed%2 == 1 {
			n := 3 + int(seed%13)
			diffWindows(t, fmt.Sprintf("seed %d (windows of %d)", seed, n), res.Trace, n)
		}
	}
}

// TestFusedDifferentialWorkloads runs the differential check over every
// registered workload under the standard schedule battery.
func TestFusedDifferentialWorkloads(t *testing.T) {
	cfg := Config{Seeds: 1, Quick: true}
	cfg.ensurePool()
	for _, spec := range workloads.All() {
		col, err := Collect(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range col.Traces {
			diffFused(t, fmt.Sprintf("%s trace %d", spec.Name, i), tr)
		}
	}
}
