package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/movers"
	"repro/internal/sched"
	"repro/internal/static"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/yield"
)

// The certify workload is cmd/certify at its defaults; dpor is the same
// command with -dpor at one more thread, so that its items are not timer
// noise.
const (
	certifyThreads = 2
	dporThreads    = 3
	exploreSize    = 1
	exploreBound   = 2
	exploreCap     = 20000

	// batteryScale multiplies each workload's default size on the battery
	// workload; batterySeeds is the number of random schedules, as in
	// coopcheck -seeds 4.
	batteryScale = 8
	batterySeeds = 4

	// The three-way differential runs at cooptrans -run's defaults.
	threeWayRuns        = 200
	threeWayPreemptions = 1
)

// certifyItems are the workloads whose bounded space completes under the
// cap at certify's defaults. Left out: the ones that hit the cap (barber,
// elevator, heartbeat, indexer, rwcache), the ones that finish in a few ms
// (crypt, lufact, moldyn, series, sor, sparse), and the ones that take more
// than 0.2 s (pool, pubsub, ratelimit, syncbench), which a run would repeat
// too few times for a per-item floor to see past the machine's slow spells.
var certifyItems = []string{
	"bank", "bank-buggy", "connpool", "crawler", "montecarlo", "philo",
	"raytracer", "raytracer-racy", "stringbuffer-buggy", "tsp", "warehouse",
}

// dporExcluded are left out of the dpor workload: barber hits the run cap,
// so its verdict would be a truncated search; six finish in under a
// millisecond (DPOR finds no conflict to branch on), which is timer noise;
// and five take 0.25-2 s each (elevator, indexer, pubsub, rwcache,
// syncbench), so a run would repeat them too few times for a per-item floor
// to see past the machine's slow spells, which last seconds.
var dporExcluded = map[string]bool{
	"barber": true,
	"crypt":  true, "lufact": true, "moldyn": true, "series": true, "sor": true, "sparse": true,
	"elevator": true, "indexer": true, "pubsub": true, "rwcache": true, "syncbench": true,
}

// staticDirs are the coopvet items: one DSL package, whose import closure
// includes the repository and the standard library, then the plain-Go
// packages, which import only sync. corpusDirs make the three-way item.
var (
	staticDirs = []string{
		"examples/bank",
		"internal/static/testdata/plaingo",
		"internal/static/testdata/rwmutex",
		"internal/cooptrans/testdata/corpus/counter",
		"internal/cooptrans/testdata/corpus/racybank",
	}
	corpusDirs = []string{
		"internal/cooptrans/testdata/corpus/counter",
		"internal/cooptrans/testdata/corpus/pipeline",
		"internal/cooptrans/testdata/corpus/racybank",
	}
)

// answer is an item's verdict with the deterministic counts that pin it.
// Each workload fills its own subset; the rest stay zero.
type answer struct {
	Verdict       string   `json:"verdict,omitempty"`
	Runs          int      `json:"runs,omitempty"`
	States        int64    `json:"states,omitempty"`
	ViolatingRuns int      `json:"violating_runs,omitempty"`
	ViolationLocs []string `json:"violation_locs,omitempty"`

	Races          int `json:"races,omitempty"`
	LocksetWarns   int `json:"lockset_warnings,omitempty"`
	AtomViolations int `json:"atom_violations,omitempty"`
	VeloViolations int `json:"velodrome_violations,omitempty"`
	CoopViolations int `json:"coop_violations,omitempty"`
	Yields         int `json:"yields,omitempty"`

	Funcs          int      `json:"funcs,omitempty"`
	Findings       int      `json:"findings,omitempty"`
	Claims         int      `json:"claims,omitempty"`
	Contradictions int      `json:"contradictions,omitempty"`
	FindingLocs    []string `json:"finding_locs,omitempty"`

	// Parts are the per-package answers of an item over several packages.
	Parts map[string]answer `json:"parts,omitempty"`
}

// item is one verdict the benchmark times. run calls into the program's
// layers through the probe, which records spans only on the traced run.
type item struct {
	name string
	run  func(p *probe) (answer, error)
}

// config is what makes a workload's items: the seed orders them and, on
// battery, seeds the random schedules; tiny shrinks every input for the
// self-test.
type config struct {
	workload string
	seed     int64
	tiny     bool
}

// tinyItems are the self-test's items: a racy and a race-free planted bug,
// a correct workload, and one plain-Go package (vet always keeps its
// three-way item).
var tinyItems = map[string]bool{"bank-buggy": true, "stringbuffer-buggy": true, "philo": true, "plaingo": true}

// buildItems makes the workload's inputs: programs are built here, once,
// and every pass re-runs the same immutable program.
func buildItems(cfg config) ([]item, error) {
	keep := func(name string) bool { return !cfg.tiny || tinyItems[name] }
	var items []item
	switch cfg.workload {
	case "certify":
		for _, n := range certifyItems {
			spec, ok := workloads.Get(n)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			if keep(n) {
				items = append(items, exploreItem(cfg.workload, n, spec.New(certifyThreads, exploreSize)))
			}
		}
	case "dpor":
		for _, spec := range workloads.All() {
			if !dporExcluded[spec.Name] && keep(spec.Name) {
				items = append(items, exploreItem(cfg.workload, spec.Name, spec.New(dporThreads, exploreSize)))
			}
		}
	case "battery":
		scale := batteryScale
		if cfg.tiny {
			scale = 1
		}
		for _, spec := range workloads.All() {
			if keep(spec.Name) {
				items = append(items, batteryItem(spec.Name, spec.New(0, spec.DefaultSize*scale), cfg.seed))
			}
		}
	case "vet":
		for _, d := range append(append([]string(nil), staticDirs...), corpusDirs...) {
			if err := checkDir(d); err != nil {
				return nil, err
			}
		}
		for _, d := range staticDirs {
			if keep(filepath.Base(d)) {
				items = append(items, staticItem(d))
			}
		}
		items = append(items, threeWayItem(corpusDirs))
	default:
		return nil, fmt.Errorf("unknown workload %q (certify|dpor|battery|vet)", cfg.workload)
	}
	r := rand.New(rand.NewSource(cfg.seed))
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

func checkDir(d string) error {
	m, err := filepath.Glob(filepath.Join(d, "*.go"))
	if err != nil || len(m) == 0 {
		return fmt.Errorf("input package %s: no Go files (run from the repository root)", d)
	}
	return nil
}

// exploreItem is cmd/certify on one workload: the exhaustive explorer, or
// with kind "dpor" the conflict-directed one, with the two-pass
// cooperability check on every schedule.
func exploreItem(kind, name string, prog *sched.Program) item {
	dpor := kind == "dpor"
	label, explore := "sched.Explore", sched.Explore
	if dpor {
		label, explore = "sched.ExploreDPOR", sched.ExploreDPOR
	}
	policy := movers.DefaultPolicy()
	return item{name: kind + "/" + name, run: func(p *probe) (answer, error) {
		violating, failedRuns := 0, 0
		locs := map[string]bool{}
		var rep *sched.ExploreReport
		var err error
		p.call(label, func() {
			rep, err = explore(prog, sched.ExploreOptions{
				MaxRuns:        exploreCap,
				MaxPreemptions: exploreBound,
				RecordTrace:    true,
				Parallel:       1,
				Visit: func(res *sched.Result, runErr error) bool {
					if runErr != nil {
						failedRuns++
						return true
					}
					v := p.visitStart()
					c := core.AnalyzeTwoPass(res.Trace, core.Options{Policy: policy})
					if vs := c.Violations(); len(vs) > 0 {
						violating++
						for _, x := range vs {
							locs[res.Trace.Strings.Name(x.Event.Loc)] = true
						}
					}
					p.visitEnd(v, res.Events)
					return true
				},
			})
		})
		if err != nil {
			return answer{}, err
		}
		p.explored(rep)
		failed := violating > 0 || failedRuns > 0 || rep.Panics > 0
		if dpor {
			a := answer{Verdict: "NO-VIOLATION", ViolationLocs: sortedKeys(locs)}
			if failed {
				a.Verdict = "FAILED"
			}
			return a, nil
		}
		// certify's rule: a certificate needs the whole bounded space.
		a := answer{Verdict: "FAILED", Runs: rep.Runs, States: rep.States, ViolatingRuns: violating}
		if !failed {
			a.Verdict = "INCOMPLETE"
			if rep.Status == sched.StatusComplete && rep.Abandoned == 0 && rep.Runs < exploreCap {
				a.Verdict = "CERTIFIED"
			}
		}
		return a, nil
	}}
}

// batteryItem is coopcheck's schedule battery on one workload —
// cooperative, round-robin with quanta 1 and 5, four random schedules
// seeded from the benchmark seed — then the fused checkers on every trace
// and yield inference over all of them, as Table 3 counts them.
func batteryItem(name string, prog *sched.Program, seed int64) item {
	return item{name: "battery/" + name, run: func(p *probe) (answer, error) {
		strategies := []sched.Strategy{
			sched.Cooperative{},
			&sched.RoundRobin{Quantum: 1},
			&sched.RoundRobin{Quantum: 5},
		}
		for s := int64(0); s < batterySeeds; s++ {
			strategies = append(strategies, sched.NewRandom(seed+s))
		}
		var traces []*trace.Trace
		for _, strat := range strategies {
			var res *sched.Result
			var err error
			p.call("sched.Run", func() {
				res, err = sched.Run(prog, sched.Options{Strategy: strat, RecordTrace: true})
			})
			if err != nil {
				return answer{}, fmt.Errorf("%s under %s: %w", name, strat.Name(), err)
			}
			p.ran(res)
			traces = append(traces, res.Trace)
		}
		races := map[uint64]bool{}
		lsVars := map[uint64]bool{}
		atomLocs := map[trace.LocID]bool{}
		coopLocs := map[trace.LocID]bool{}
		var a answer
		known := make([]map[uint64]bool, len(traces))
		for i, tr := range traces {
			var fa *harness.FusedAnalysis
			p.call("harness.FusedRunner.Analyze", func() { fa = harness.FusedRunner{}.Analyze(tr) })
			p.fused(tr.Len())
			known[i] = fa.KnownRaces
			for _, v := range fa.Race.RacyVars() {
				races[v] = true
			}
			for _, v := range fa.Lockset.WarnedVars() {
				lsVars[v] = true
			}
			for _, v := range fa.Atom.Violations() {
				atomLocs[v.Event.Loc] = true
			}
			a.VeloViolations = max(a.VeloViolations, len(fa.VeloViolations))
			for _, v := range fa.Coop.Violations() {
				coopLocs[v.Event.Loc] = true
			}
		}
		var inf *yield.Result
		p.call("yield.InferKnown", func() {
			inf = yield.InferKnown(traces, known, core.Options{Policy: movers.DefaultPolicy()}, 0)
		})
		p.inferred(inf.Rounds)
		a.Races, a.LocksetWarns = len(races), len(lsVars)
		a.AtomViolations, a.CoopViolations = len(atomLocs), len(coopLocs)
		a.Yields = inf.Count()
		return a, nil
	}}
}

// staticItem is coopvet over one package.
func staticItem(dir string) item {
	return item{name: "static/" + filepath.Base(dir), run: func(p *probe) (answer, error) {
		rep, err := p.analyze(dir)
		if err != nil {
			return answer{}, err
		}
		return answer{Funcs: rep.Stats.Funcs, Findings: rep.Stats.Findings, Claims: claims(rep)}, nil
	}}
}

// threeWayItem is cooptrans -run over the corpus: for each package,
// translation, coopvet and exploration of every translated unit,
// cross-checked. It is one item because pipeline alone takes a few ms.
func threeWayItem(dirs []string) item {
	return item{name: "threeway/corpus", run: func(p *probe) (answer, error) {
		a := answer{Parts: map[string]answer{}}
		for _, dir := range dirs {
			p.threeWayShares(dir)
			var rep *harness.ThreeWayReport
			var err error
			p.call("harness.ThreeWay", func() {
				rep, err = harness.ThreeWay(dir, harness.ThreeWayOptions{MaxRuns: threeWayRuns, MaxPreemptions: threeWayPreemptions})
			})
			if err != nil {
				return answer{}, err
			}
			part := answer{
				Claims:         rep.StaticClaims,
				Contradictions: len(rep.Contradictions),
				ViolationLocs:  rep.DynamicLocs,
				FindingLocs:    rep.StaticFindingLocs,
			}
			for _, u := range rep.Units {
				part.Runs += u.Runs
			}
			p.threeWay(part.Runs, part.Contradictions)
			a.Parts[filepath.Base(dir)] = part
			a.Contradictions += part.Contradictions
		}
		return a, nil
	}}
}

func claims(rep *static.Report) int {
	n := 0
	for _, f := range rep.Funcs {
		if f.Claimed() {
			n++
		}
	}
	return n
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runItem runs one item, turning a panic into an error so that it counts
// as a failed verdict instead of ending the run.
func runItem(it item, p *probe) (a answer, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return it.run(p)
}
