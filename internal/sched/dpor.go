package sched

import (
	"fmt"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// conflictsDPOR is the cross-thread restriction of trace.Conflict: program
// order is not a scheduling choice, and fork/join orderings are enforced by
// runnability, so only data and lock conflicts justify backtracking.
func conflictsDPOR(a, b trace.Event) bool {
	return a.Tid != b.Tid && trace.Conflict(a, b)
}

// ExploreDPOR explores schedules like Explore but adds backtracking points
// only where the executed trace exhibits a cross-thread conflict — the
// heuristic at the heart of dynamic partial-order reduction (Flanagan &
// Godefroid, POPL 2005): reorderings of non-conflicting operations are
// equivalent, so only conflicting pairs justify a new schedule.
//
// For every conflicting pair (i, j) with i earliest per interfering thread,
// the explorer re-runs with a prefix that, at the decision point of event
// i, schedules j's thread instead. Compared to Explore's exhaustive
// branching this typically visits orders of magnitude fewer runs while
// still distinguishing every conflict-inequivalent outcome on the small
// programs it is meant for (the tests cross-check the outcome sets).
//
// MaxPreemptions is interpreted as in Explore; fork/join/blocking-induced
// switches are free. Budgets, cancellation, and panic isolation behave as
// in Explore: the returned report says how far the reduced search got and
// why it stopped, and a crashing replay is visited as an *ExploreError.
func ExploreDPOR(p *Program, opts ExploreOptions) (*ExploreReport, error) {
	if opts.Visit == nil {
		return nil, fmt.Errorf("sched: ExploreOptions.Visit is required")
	}
	opts.RecordTrace = true // the conflict analysis below needs the trace
	seen := map[string]bool{"": true}
	return exploreDFS(p, &opts, "explore-dpor",
		func(prefix []trace.TID, res *Result, points []ChoicePoint, push func([]trace.TID), ftrack *flight.Track) {
			pushed := 0
			expandDPOR(res, prefix, points, opts.MaxPreemptions, func(np []trace.TID) {
				if key := prefixKey(np); !seen[key] {
					seen[key] = true
					push(np)
					pushed++
				}
			})
			if ftrack != nil && pushed > 0 {
				ftrack.Instant(flight.CatSched, "backtrack", "", flight.A("pushed", int64(pushed)))
			}
		})
}

// expandDPOR offers push the backtracking prefixes of one run: a flip at
// each unfrozen decision point where a cross-thread conflict justifies one,
// then every alternative case of every unfrozen select decision.
func expandDPOR(res *Result, prefix []trace.TID, points []ChoicePoint, maxPreemptions int, push func([]trace.TID)) {
	if res == nil || res.Trace == nil {
		return
	}
	tr := res.Trace

	// decisionOf[e] = index of the choice point that scheduled event e
	// (the last thread-pick point whose EventIdx equals e). Select
	// decisions are skipped: their "runnable" sets hold case indices,
	// not tids, so a thread flip must target the pick that scheduled
	// the selecting thread, not the case decision stacked on top of it.
	decisionOf := make([]int, len(tr.Events))
	for i := range decisionOf {
		decisionOf[i] = -1
	}
	for pi, pt := range points {
		if !pt.Select && pt.EventIdx < len(decisionOf) {
			decisionOf[pt.EventIdx] = pi
		}
	}
	// Running preemption counts, shared by every flip considered below
	// (recounting per pair was quadratic in trace depth).
	pre := preemptionPrefix(points)

	// For each event j, consider the latest earlier conflicting events
	// of each other thread: reversing such a pair is the only
	// reordering that can change behaviour locally. Two predecessors
	// per thread are considered, not one: a blocked lock acquisition
	// leaves no event, so the schedule where T1 takes a lock *before*
	// T0's critical section is reachable only by flipping at T0's
	// acquire, which hides behind T0's release in the observed trace.
	for j := range tr.Events {
		ej := tr.Events[j]
		seenTid := map[trace.TID]int{}
		for i := j - 1; i >= 0; i-- {
			ei := tr.Events[i]
			if ei.Tid == ej.Tid || seenTid[ei.Tid] >= 2 {
				continue
			}
			if !conflictsDPOR(ei, ej) {
				continue
			}
			seenTid[ei.Tid]++
			dp := decisionOf[i]
			if dp < 0 || dp < len(prefix) {
				continue // decision frozen by the current prefix
			}
			pt := points[dp]
			if !containsTID(pt.Runnable, ej.Tid) || ej.Tid == pt.Chosen {
				continue
			}
			// Preemption budget: the flip costs one if the previously
			// running thread was still runnable.
			cost := 0
			if pt.Current >= 0 && containsTID(pt.Runnable, pt.Current) && ej.Tid != pt.Current {
				cost = 1
			}
			if pre[dp]+cost > maxPreemptions {
				continue
			}
			np := make([]trace.TID, dp+1)
			for k := 0; k < dp; k++ {
				np[k] = points[k].Chosen
			}
			np[dp] = ej.Tid
			push(np)
		}
	}
	// Select nondeterminism is enumerated exhaustively — no reduction
	// is attempted over select commits, since the dependence relation
	// already treats a select as conflicting with every channel op.
	// Every alternative ready case of every unfrozen select decision is
	// pushed; a select branch never costs a preemption (Current is -1).
	for pi := len(points) - 1; pi >= len(prefix); pi-- {
		pt := points[pi]
		if !pt.Select || len(pt.Runnable) < 2 {
			continue
		}
		for _, alt := range pt.Runnable {
			if alt == pt.Chosen {
				continue
			}
			np := make([]trace.TID, pi+1)
			for k := 0; k < pi; k++ {
				np[k] = points[k].Chosen
			}
			np[pi] = alt
			push(np)
		}
	}
}

func prefixKey(p []trace.TID) string {
	b := make([]byte, 0, len(p)*2)
	for _, t := range p {
		b = append(b, byte(t), byte(t>>8))
	}
	return string(b)
}
