package sched

import (
	"slices"
	"testing"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// expandDPOROracle is ExploreDPOR's expansion as it was before the indexed
// backtrack scan: for every event j it walks every earlier event i. Its
// rules are kept unchanged as the oracle the indexed scan is compared
// against. It reads a run's full decision log: points holds every
// decision past prefix, the k-th being decision len(prefix)+k (a
// zero-value Guided's replay of the prefix records it), and pre is the
// prefix's carried preemption count.
func expandDPOROracle(res *Result, prefix []trace.TID, points []ChoicePoint, pre, maxPreemptions int, push func([]trace.TID)) {
	if res == nil || res.Trace == nil {
		return
	}
	tr := res.Trace
	// decisions returns the choices of every decision before dp.
	decisions := func(dp int) []trace.TID {
		np := make([]trace.TID, dp+1)
		copy(np, prefix)
		for k := len(prefix); k < dp; k++ {
			np[k] = points[k-len(prefix)].Chosen
		}
		return np
	}

	// decisionOf[e] = the decision that scheduled event e (the last
	// thread-pick point whose EventIdx equals e). Select decisions are
	// skipped: their "runnable" sets hold case indices, not tids, so a
	// thread flip must target the pick that scheduled the selecting
	// thread, not the case decision stacked on top of it.
	decisionOf := make([]int, len(tr.Events))
	for i := range decisionOf {
		decisionOf[i] = -1
	}
	for pi, pt := range points {
		if !pt.Select && pt.EventIdx < len(decisionOf) {
			decisionOf[pt.EventIdx] = len(prefix) + pi
		}
	}
	// Running preemption counts from the prefix's on, shared by every flip
	// considered below (recounting per pair was quadratic in trace depth).
	counts := make([]int, len(points)+1)
	counts[0] = pre
	for i, pt := range points {
		counts[i+1] = counts[i]
		if pt.Current >= 0 && containsTID(pt.Runnable, pt.Current) && pt.Chosen != pt.Current {
			counts[i+1]++
		}
	}

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
			pt := points[dp-len(prefix)]
			if !containsTID(pt.Runnable, ej.Tid) || ej.Tid == pt.Chosen {
				continue
			}
			// Preemption budget: the flip costs one if the previously
			// running thread was still runnable.
			cost := 0
			if pt.Current >= 0 && containsTID(pt.Runnable, pt.Current) && ej.Tid != pt.Current {
				cost = 1
			}
			if counts[dp-len(prefix)]+cost > maxPreemptions {
				continue
			}
			np := decisions(dp)
			np[dp] = ej.Tid
			push(np)
		}
	}
	// Select nondeterminism is enumerated exhaustively — no reduction
	// is attempted over select commits, since the dependence relation
	// already treats a select as conflicting with every channel op.
	// Every alternative ready case of every unfrozen select decision is
	// pushed; a select branch never costs a preemption (Current is -1).
	for pi := len(points) - 1; pi >= 0; pi-- {
		pt := points[pi]
		if !pt.Select || len(pt.Runnable) < 2 {
			continue
		}
		for _, alt := range pt.Runnable {
			if alt == pt.Chosen {
				continue
			}
			np := decisions(len(prefix) + pi)
			np[len(prefix)+pi] = alt
			push(np)
		}
	}
}

// exploreDPORRuns runs ExploreDPOR's search and hands observe each run's
// expansion input and every prefix the indexed scan offers for it, new or
// not. The search pushes the new ones, as ExploreDPOR does.
func exploreDPORRuns(p *Program, opts ExploreOptions, observe func(run DPORRun, offered [][]trace.TID)) (*ExploreReport, error) {
	opts.RecordTrace = true
	var seen prefixSet
	var scan dporScan
	return exploreDFS(p, &opts, "explore-dpor",
		func(f frontier, res *Result, g *Guided, push func(frontier), _ *flight.Track) {
			var offered [][]trace.TID
			seen.run(g)
			scan.expand(res, g.Points, f.pre, opts.MaxPreemptions, func(dp int, t trace.TID, n int) {
				np := g.prefixAt(dp, t)
				offered = append(offered, np)
				if seen.add(dp, t) {
					push(frontier{np, n})
				}
			})
			observe(DPORRun{f, res, *g}, offered)
		})
}

// ExploreDPORAgainstOracle runs ExploreDPOR's search with every expansion
// computed twice, by the indexed scan and by expandDPOROracle, and calls
// mismatch with the expansion's number and both push sequences whenever
// they differ. The oracle reads the full decision log of a replay of the
// run's prefix by a zero-value Guided (replayFull), not the search's log,
// which lacks the decisions Guided settled. The search goes on with the
// indexed scan's pushes. It returns the report and the number of
// expansions compared.
func ExploreDPORAgainstOracle(p *Program, opts ExploreOptions, mismatch func(n int, got, want [][]trace.TID)) (*ExploreReport, int, error) {
	full := newReplayer()
	defer full.rt.close()
	n := 0
	rep, err := exploreDPORRuns(p, opts, func(r DPORRun, got [][]trace.TID) {
		var want [][]trace.TID
		if r.res != nil {
			_, all := full.replayFull(p, r.prefix)
			expandDPOROracle(r.res, r.prefix, all.Points, r.pre, opts.MaxPreemptions, func(np []trace.TID) { want = append(want, np) })
		}
		n++
		if !slices.EqualFunc(got, want, slices.Equal[[]trace.TID]) {
			mismatch(n, got, want)
		}
	})
	return rep, n, err
}

// TestConflictIndexSound checks the property the indexed backtrack scan
// rests on, for every op (each valid one and two invalid ones) against
// every op, with equal and unequal variable, lock and channel targets,
// channel ids that differ only in the unbuffered bit, the select default
// target, a volatile-range id, and fork/join targets equal to either
// thread or to neither: whenever trace.Conflict relates events of two
// threads, the later event's walk of the earlier event's thread reaches
// the earlier event. The walk must also return each index at most once,
// in descending order. An edit to trace.Conflict that adds a dependence the
// chains do not model fails here instead of pruning schedules.
func TestConflictIndexSound(t *testing.T) {
	var ops []trace.Op
	for o := 0; o < 256; o++ {
		if trace.Op(o).Valid() {
			ops = append(ops, trace.Op(o))
		}
	}
	ops = append(ops, trace.Op(len(ops)), trace.Op(255))
	targets := []uint64{0, 1, 2, trace.ChanTarget(1, true), trace.ChanTarget(2, true), trace.ChanNone, 1<<32 | 1}

	// Every (op, target) of one thread, then every (op, target) of the
	// other: each ordered cross-thread pair appears with the first event
	// before the second.
	for _, tids := range [][2]trace.TID{{0, 1}, {1, 0}} {
		var events []trace.Event
		for _, tid := range tids {
			for _, op := range ops {
				for _, tg := range targets {
					events = append(events, trace.Event{Idx: len(events), Tid: tid, Op: op, Target: tg})
				}
			}
		}
		var s dporScan
		s.reset(events, 0)
		for j, ej := range events {
			kind := chainOf(ej.Op)
			rows := s.rowsOf(kind, ej)
			visited := make([]bool, j)
			var p walkPlan
			s.plan(&p, ej, kind, rows)
			for other := 0; other < s.threads; other++ {
				var w chainWalk
				s.walk(&w, &p, ej, kind, other)
				last := int32(j)
				for i, k := w.peek(); i >= 0; i, k = w.peek() {
					if i >= last || events[i].Tid != trace.TID(other) {
						t.Fatalf("event %d (%v): T%d's walk returned %d (T%d) after %d", j, ej, other, i, events[i].Tid, last)
					}
					visited[i], last = true, i
					w.advance(&s, k)
				}
			}
			for i, ei := range events[:j] {
				if conflictsDPOR(ei, ej) && !visited[i] {
					t.Errorf("%v (T%d, target %#x) conflicts with later %v (T%d, target %#x), but the chains do not reach it",
						ei.Op, ei.Tid, ei.Target, ej.Op, ej.Tid, ej.Target)
				}
			}
			s.link(ej, j, kind, rows)
		}
	}
}

// DPORRun is what one run of an ExploreDPOR search hands its expansion:
// the entry it replayed, its result and its decision log.
type DPORRun struct {
	frontier
	res *Result
	log Guided
}

// Events returns the length of the run's trace.
func (r DPORRun) Events() int { return len(r.res.Trace.Events) }

// RecordDPOR runs ExploreDPOR's search and returns every run's expansion
// input, in visit order. Each run's points and path are copied, since the
// search's next replay reuses their arrays.
func RecordDPOR(p *Program, opts ExploreOptions) ([]DPORRun, error) {
	var runs []DPORRun
	opts.Visit = func(*Result, error) bool { return true }
	_, err := exploreDPORRuns(p, opts, func(r DPORRun, _ [][]trace.TID) {
		if r.res != nil {
			points := slices.Clone(r.log.Points)
			for i := range points {
				points[i].Runnable = slices.Clone(points[i].Runnable)
			}
			r.log = Guided{Prefix: r.log.Prefix, Points: points, path: slices.Clone(r.log.path)}
			runs = append(runs, r)
		}
	})
	return runs, err
}

// ExpandDPOR expands every recorded run with one scan, as a search does,
// and returns the number of prefixes offered.
func ExpandDPOR(runs []DPORRun, maxPreemptions int) int {
	var scan dporScan
	n := 0
	for _, r := range runs {
		scan.expand(r.res, r.log.Points, r.pre, maxPreemptions, func(int, trace.TID, int) { n++ })
	}
	return n
}
