package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/cooptrans"
	"repro/internal/core"
	"repro/internal/movers"
	"repro/internal/obs/flight"
	"repro/internal/sched"
	"repro/internal/static"
)

// probe times the traced run from outside the program: every call an item
// makes into a layer's public function becomes a span on the benchmark's
// own recorder, under the item's span. A nil probe, as on the untraced
// run, only makes the calls.
type probe struct {
	rec   *flight.Recorder
	track *flight.Track
	item  flight.Span
	kind  string // the current item's kind: certify, dpor, battery, static, threeway
	spans int    // spans begun, each a begin and an end event

	// callNs, callN and allocB are the time, count and heap allocation of
	// the layer calls, keyed by item kind and span name (a three-way
	// item's sched.Explore is not a certify item's). extraNs is the time
	// in calls only the traced run makes, which trace_overhead_frac leaves
	// out.
	callNs  map[string]int64
	callN   map[string]int64
	allocB  map[string]uint64
	extraNs int64
	itemNs  int64

	// The Visit callback runs once per schedule; its time and allocations
	// are summed here instead of recording a span per schedule.
	visitNs     int64
	visitAllocB uint64
	visitEvents int64

	// The collections run between items, which the GC metrics leave out.
	forcedCycles           uint64
	forcedGCCPU, forcedCPU float64

	exploreRuns, exploreStates int64
	runEvents                  int64
	fusedEvents                int64
	yieldRounds                int64
	staticFuncs, staticFinds   int64
	loads                      int // static packages analyzed, to alternate the order of the split
	transUnits                 int64
	twRuns, twContradictions   int64

	alloc []metrics.Sample
}

func newProbe(trackCap int) *probe {
	rec := flight.New(flight.Options{TrackCap: trackCap})
	return &probe{
		rec:    rec,
		track:  rec.Track("perfbench"),
		callNs: map[string]int64{},
		callN:  map[string]int64{},
		allocB: map[string]uint64{},
		alloc:  []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (p *probe) allocated() uint64 {
	metrics.Read(p.alloc)
	return p.alloc[0].Value.Uint64()
}

// collect runs a full collection before an item, outside its time, so
// that no item pays for the garbage the one before it left (the order of
// the items changes with the seed) and each starts from a collected heap,
// as a fresh command would. The traced run keeps the collection's cycles
// and CPU time out of the GC metrics, which describe the items.
func (p *probe) collect() {
	if p == nil {
		runtime.GC()
		return
	}
	before := readRuntime()
	runtime.GC()
	after := readRuntime()
	p.forcedCycles += after[1].Value.Uint64() - before[1].Value.Uint64()
	p.forcedGCCPU += after[2].Value.Float64() - before[2].Value.Float64()
	p.forcedCPU += after[3].Value.Float64() - before[3].Value.Float64()
}

// beginItem opens the item's span; endItem closes it.
func (p *probe) beginItem(name string) time.Time {
	if p != nil {
		p.item = p.track.Begin(flight.CatCLI, name, 0)
		p.kind, _, _ = strings.Cut(name, "/")
		p.spans++
	}
	return time.Now()
}

func (p *probe) endItem(start time.Time) time.Duration {
	d := time.Since(start)
	if p != nil {
		p.item.End()
		p.itemNs += int64(d)
	}
	return d
}

// spanCat files each layer call under the flight category of its layer.
var spanCat = map[string]flight.Cat{
	"sched.Explore":               flight.CatSched,
	"sched.ExploreDPOR":           flight.CatSched,
	"sched.Run":                   flight.CatRun,
	"harness.FusedRunner.Analyze": flight.CatChecker,
	"yield.InferKnown":            flight.CatChecker,
	"static.Load":                 flight.CatHarness,
	"static.Analyze":              flight.CatHarness,
	"cooptrans.Translate":         flight.CatHarness,
	"harness.ThreeWay":            flight.CatHarness,
}

// call makes one layer call, in a span on the traced run.
func (p *probe) call(name string, fn func()) {
	if p == nil {
		fn()
		return
	}
	a0, v0 := p.allocated(), p.visitNs
	sp := p.track.Begin(spanCat[name], name, p.item.ID())
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.End(flight.A("visit_ns", p.visitNs-v0))
	p.spans++
	key := p.kind + "/" + name
	p.callNs[key] += int64(d)
	p.callN[key]++
	p.allocB[key] += p.allocated() - a0
}

// visitStart and visitEnd bracket the per-schedule check inside an
// explorer's Visit callback.
type visitMark struct {
	t     time.Time
	alloc uint64
}

func (p *probe) visitStart() visitMark {
	if p == nil {
		return visitMark{}
	}
	return visitMark{t: time.Now(), alloc: p.allocated()}
}

func (p *probe) visitEnd(v visitMark, events int) {
	if p == nil {
		return
	}
	p.visitNs += int64(time.Since(v.t))
	p.visitAllocB += p.allocated() - v.alloc
	p.visitEvents += int64(events)
}

func (p *probe) explored(rep *sched.ExploreReport) {
	if p != nil {
		p.exploreRuns += int64(rep.Runs)
		p.exploreStates += rep.States
	}
}

func (p *probe) ran(res *sched.Result) {
	if p != nil {
		p.runEvents += int64(res.Events)
	}
}

func (p *probe) fused(events int) {
	if p != nil {
		p.fusedEvents += int64(events)
	}
}

func (p *probe) inferred(rounds int) {
	if p != nil {
		p.yieldRounds += int64(rounds)
	}
}

// analyze is coopvet over one package. The traced run also times
// static.Load of the same package on its own, to split static.Analyze into
// loading and interpretation; only the traced run makes that call. Loading
// is nearly all of Analyze, so the split is the difference of two calls
// that each take up to seconds: both start from a collected heap, and
// their order alternates from one package to the next, so that the heap
// growth the first of the two pays does not always land on the same side.
func (p *probe) analyze(dir string) (rep *static.Report, err error) {
	analyze := func() {
		p.call("static.Analyze", func() { rep, err = static.Analyze([]string{dir}, static.Config{}) })
	}
	if p == nil {
		analyze()
		return rep, err
	}
	extra := func(fn func()) {
		t0 := time.Now()
		fn()
		p.extraNs += int64(time.Since(t0))
	}
	// Only the time of this call is wanted: static.Analyze loads the same
	// package and reports its errors.
	load := func() { p.call("static.Load", func() { _, _ = static.Load([]string{dir}) }) }
	extra(runtime.GC)
	if p.loads++; p.loads%2 == 1 {
		extra(load)
		extra(runtime.GC)
		analyze()
	} else {
		analyze()
		extra(runtime.GC)
		extra(load)
	}
	if err == nil {
		p.staticFuncs += int64(rep.Stats.Funcs)
		p.staticFinds += int64(rep.Stats.Findings)
	}
	return rep, err
}

// threeWayShares times the two phases harness.ThreeWay runs besides
// coopvet, by repeating them from outside with its options: translation,
// and exploration of every translated unit with the two-pass check on each
// schedule. Only the traced run makes these calls, and only their time is
// wanted: harness.ThreeWay makes the same calls and reports their errors.
func (p *probe) threeWayShares(dir string) {
	if p == nil {
		return
	}
	t0 := time.Now()
	var tr *cooptrans.Translation
	p.call("cooptrans.Translate", func() { tr, _ = cooptrans.Translate(dir) })
	if tr != nil {
		p.transUnits += int64(len(tr.Units))
		policy := movers.DefaultPolicy()
		for _, u := range tr.Units {
			p.call("sched.Explore", func() {
				_, _ = sched.Explore(u.Build(), sched.ExploreOptions{
					MaxRuns:        threeWayRuns,
					MaxPreemptions: threeWayPreemptions,
					RecordTrace:    true,
					Parallel:       1,
					Visit: func(res *sched.Result, err error) bool {
						if err == nil {
							core.AnalyzeTwoPass(res.Trace, core.Options{Policy: policy})
						}
						return true
					},
				})
			})
		}
	}
	p.extraNs += int64(time.Since(t0))
}

func (p *probe) threeWay(runs, contradictions int) {
	if p != nil {
		p.twRuns += int64(runs)
		p.twContradictions += int64(contradictions)
	}
}
