package sched

import "repro/internal/obs"

// Pre-resolved metric handles on the obs.Default registry (the hot-path
// rule from DESIGN.md "Observability": updates are plain atomic adds on
// package-level handles, never name lookups). Explorer metrics are updated
// per replayed schedule; runtime metrics are counted in plain Runtime
// fields during a run and flushed here once when the run ends.
var (
	mExploreRuns     = obs.Default.Counter("explore.runs")
	mExploreStates   = obs.Default.Counter("explore.states")
	mExploreReplays  = obs.Default.Counter("explore.replays")
	mExploreFrontier = obs.Default.Gauge("explore.frontier.hwm")
	mExploreMaxRuns  = obs.Default.Gauge("explore.max_runs")
	// The search's own bookkeeping, apart from its replays: expansions of
	// a finished run into the prefixes to visit, and their wall clock.
	mExploreExpands  = obs.Default.Counter("explore.expand.count")
	mExploreExpandNs = obs.Default.Counter("explore.expand.ns")
	// ExploreDPOR's backtrack scan: the events of its runs before their
	// frozen frontiers, which it skips, and from them on, which it walks.
	mExploreDPORFrozen  = obs.Default.Counter("explore.dpor.frozen")
	mExploreDPORScanned = obs.Default.Counter("explore.dpor.scanned")

	// Fault-tolerance telemetry (DESIGN.md "Fault tolerance & budgets"):
	// cutoff causes are counted once per exploration, panics once per
	// crashing replay, and the configured budgets plus the abandoned
	// frontier are published so a partial run report is self-describing.
	mExploreCancelled    = obs.Default.Counter("explore.cancelled")
	mExploreDeadline     = obs.Default.Counter("explore.deadline")
	mExplorePanics       = obs.Default.Counter("explore.panics")
	mExploreBudgetHit    = obs.Default.Counter("explore.budget.exhausted")
	mExploreBudgetStates = obs.Default.Gauge("explore.budget.states")
	mExploreBudgetMem    = obs.Default.Gauge("explore.budget.mem_bytes")
	mExploreAbandoned    = obs.Default.Gauge("explore.abandoned")

	mRunRuns        = obs.Default.Counter("runtime.runs")
	mRunEvents      = obs.Default.Counter("runtime.events")
	mRunYields      = obs.Default.Counter("runtime.yields")
	mRunSwitches    = obs.Default.Counter("runtime.switches")
	mRunPreemptions = obs.Default.Counter("runtime.preemptions")
	mRunThreadsHWM  = obs.Default.Gauge("runtime.threads.hwm")
	mRunEventsHist  = obs.Default.Histogram("runtime.run_events", obs.PowersOf(64, 4, 9))

	// Trace-generation fast-path telemetry (DESIGN.md "Trace generation
	// hot path"): how often the PC→location cache answered without
	// symbolizing, how many switches were one-hop thread→thread wakes (all
	// but main's first turn, which run's caller takes), and how many
	// scheduling points resolved in place with no parking at all.
	mRunLocHits        = obs.Default.Counter("runtime.loc.hits")
	mRunLocMisses      = obs.Default.Counter("runtime.loc.misses")
	mRunDirectHandoffs = obs.Default.Counter("runtime.handoff.direct")
	mRunElidedParks    = obs.Default.Counter("runtime.handoff.elided")

	// Channel op telemetry: one count per committed channel operation
	// (selects count once per commit, plus the committed send/recv).
	mRunChanSends   = obs.Default.Counter("runtime.chan.sends")
	mRunChanRecvs   = obs.Default.Counter("runtime.chan.recvs")
	mRunChanCloses  = obs.Default.Counter("runtime.chan.closes")
	mRunChanSelects = obs.Default.Counter("runtime.chan.selects")

	// Phase attribution (flight recorder enabled only; see SchedStats):
	// cumulative wall clock per run phase, summed across runs.
	mRunPhaseGen      = obs.Default.Counter("runtime.phase.generation_ns")
	mRunPhaseHandoff  = obs.Default.Counter("runtime.phase.handoff_ns")
	mRunPhaseAnalysis = obs.Default.Counter("runtime.phase.analysis_ns")
	mRunPhaseTotal    = obs.Default.Counter("runtime.phase.total_ns")
)

// flushMetrics publishes one finished run's counters; called exactly once
// per Run, so concurrent explorations aggregate correctly via the atomics.
func (rt *Runtime) flushMetrics() {
	mRunRuns.Inc()
	mRunEvents.Add(int64(rt.events))
	mRunYields.Add(int64(rt.yields))
	mRunSwitches.Add(int64(rt.switches))
	mRunPreemptions.Add(int64(rt.preemptions))
	mRunThreadsHWM.SetMax(int64(len(rt.threads)))
	mRunEventsHist.Observe(int64(rt.events))
	mRunLocHits.Add(int64(rt.locs.hits))
	mRunLocMisses.Add(int64(rt.locs.miss))
	mRunDirectHandoffs.Add(int64(rt.directHandoffs))
	mRunElidedParks.Add(int64(rt.elidedParks))
	if rt.chanSends > 0 || rt.chanRecvs > 0 || rt.chanCloses > 0 || rt.chanSelects > 0 {
		mRunChanSends.Add(int64(rt.chanSends))
		mRunChanRecvs.Add(int64(rt.chanRecvs))
		mRunChanCloses.Add(int64(rt.chanCloses))
		mRunChanSelects.Add(int64(rt.chanSelects))
	}
	if rt.phaseTotalNs > 0 {
		mRunPhaseGen.Add(rt.phaseGenNs)
		mRunPhaseHandoff.Add(rt.phaseHandoffNs)
		mRunPhaseAnalysis.Add(rt.phaseAnalysisNs)
		mRunPhaseTotal.Add(rt.phaseTotalNs)
	}
}
