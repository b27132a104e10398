package main

import (
	"runtime/metrics"

	"repro/internal/obs"
)

// layers turns the traced run's spans, the obs counter deltas and the
// runtime metrics into the per-layer metrics. Times and counts are per
// pass over the items, so they compare with the item times; a layer the
// workload does not reach reads 0.
func (p *probe) layers(rep *report, s0, s1 *obs.Snapshot, rt0, rt1 []metrics.Sample) map[string]float64 {
	passes := float64(rep.Passes)
	delta := func(name string) float64 { return float64(s1.Counters[name] - s0.Counters[name]) }
	perPass := func(v float64) float64 { return v / passes }
	ms := func(ns int64) float64 { return perPass(float64(ns) / 1e6) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ns := p.callNs
	runNs := ns["battery/sched.Run"]
	fusedNs := ns["battery/harness.FusedRunner.Analyze"]
	// A run is one workload, so the Visit sums belong to whichever
	// explorer it calls; self time is the explorer's span minus them.
	var exploreNs, dporNs, exploreRuns, dporRuns, exploreStates, dporStates int64
	var exploreAlloc float64
	switch {
	case p.callN["certify/sched.Explore"] > 0:
		exploreNs = ns["certify/sched.Explore"] - p.visitNs
		exploreRuns, exploreStates = p.exploreRuns, p.exploreStates
		exploreAlloc = float64(p.allocB["certify/sched.Explore"] - p.visitAllocB)
	case p.callN["dpor/sched.ExploreDPOR"] > 0:
		dporNs = ns["dpor/sched.ExploreDPOR"] - p.visitNs
		dporRuns, dporStates = p.exploreRuns, p.exploreStates
	}
	var attributed int64
	for _, d := range ns {
		attributed += d
	}
	elided, direct := delta("runtime.handoff.elided"), delta("runtime.handoff.direct")
	hits, misses := delta("runtime.loc.hits"), delta("runtime.loc.misses")
	gcCPU := rt1[2].Value.Float64() - rt0[2].Value.Float64() - p.forcedGCCPU
	allCPU := rt1[3].Value.Float64() - rt0[3].Value.Float64() - p.forcedCPU
	gcCycles := float64(rt1[1].Value.Uint64() - rt0[1].Value.Uint64() - p.forcedCycles)
	return map[string]float64{
		"sched.run.ms":               ms(runNs),
		"sched.run.us_per_run":       ratio(float64(runNs)/1e3, float64(p.callN["battery/sched.Run"])),
		"sched.run.events_per_s":     ratio(float64(p.runEvents), float64(runNs)/1e9),
		"sched.switches_per_kevent":  1000 * ratio(delta("runtime.switches"), delta("runtime.events")),
		"sched.handoff.elided_ratio": ratio(elided, elided+direct),
		"sched.loc.miss_ratio":       ratio(misses, hits+misses),

		"sched.explore.self_ms":          ms(exploreNs),
		"sched.explore.us_per_run":       ratio(float64(exploreNs)/1e3, float64(exploreRuns)),
		"sched.explore.runs":             perPass(float64(exploreRuns)),
		"sched.explore.states":           perPass(float64(exploreStates)),
		"sched.explore.alloc_kb_per_run": ratio(exploreAlloc/1024, float64(exploreRuns)),
		"sched.explore.frontier_hwm":     float64(s1.Gauges["explore.frontier.hwm"]),

		"sched.dpor.self_ms":    ms(dporNs),
		"sched.dpor.us_per_run": ratio(float64(dporNs)/1e3, float64(dporRuns)),
		"sched.dpor.runs":       perPass(float64(dporRuns)),
		"sched.dpor.states":     perPass(float64(dporStates)),

		"core.ms":           ms(p.visitNs),
		"core.events_per_s": ratio(float64(p.visitEvents), float64(p.visitNs)/1e9),

		"harness.fused.ms":           ms(fusedNs),
		"harness.fused.pass1_ms":     perPass(delta("harness.fused.pass1.ns") / 1e6),
		"harness.fused.pass2_ms":     perPass(delta("harness.fused.pass2.ns") / 1e6),
		"harness.fused.events_per_s": ratio(float64(p.fusedEvents), float64(fusedNs)/1e9),
		"race.fastpath_ratio":        ratio(delta("checker.race.fastpath"), delta("checker.race.events")),
		"lockset.fastpath_ratio":     ratio(delta("checker.lockset.fastpath"), delta("checker.lockset.events")),
		"velodrome.edges_per_kevent": 1000 * ratio(delta("checker.velodrome.edges"), delta("checker.velodrome.events")),

		"yield.ms":     ms(ns["battery/yield.InferKnown"]),
		"yield.rounds": perPass(float64(p.yieldRounds)),

		"static.load_ms":       ms(ns["static/static.Load"]),
		"static.interp_ms":     ms(ns["static/static.Analyze"] - ns["static/static.Load"]),
		"static.load_alloc_mb": perPass(float64(p.allocB["static/static.Load"]) / 1e6),
		"static.funcs":         perPass(float64(p.staticFuncs)),
		"static.findings":      perPass(float64(p.staticFinds)),

		"cooptrans.translate_ms": ms(ns["threeway/cooptrans.Translate"]),
		"cooptrans.units":        perPass(float64(p.transUnits)),

		"harness.threeway.explore_ms":     ms(ns["threeway/sched.Explore"]),
		"harness.threeway.runs":           perPass(float64(p.twRuns)),
		"harness.threeway.contradictions": perPass(float64(p.twContradictions)),

		"gc.cpu_frac":           ratio(gcCPU, allCPU),
		"gc.cycles_per_verdict": ratio(gcCycles, float64(rep.Attempted)),

		"unattributed_frac": ratio(float64(p.itemNs-attributed), float64(p.itemNs)),
		"flight.dropped":    float64(p.rec.Snapshot().Dropped),
	}
}
