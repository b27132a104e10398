package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// ExploreOptions bounds an exhaustive schedule exploration.
type ExploreOptions struct {
	// MaxRuns caps the number of schedules executed; 0 means 10000.
	MaxRuns int
	// Budget bounds the search's wall clock, cancellation, state count,
	// and memory (see Budget). Hitting any bound ends the search with a
	// partial — but still deterministic — ExploreReport.
	Budget Budget
	// MaxPreemptions bounds non-forced context switches per schedule
	// (choosing a thread other than the runnable current one); 0 means
	// explore only forced switches (blocking points). That is not the
	// cooperative schedule tree: bound 0 never switches at a yield while
	// the yielding thread stays runnable (bank: 3 runs at bound 0, 56 in
	// the tree).
	MaxPreemptions int
	// RecordTrace forwards to Options.RecordTrace for each run.
	RecordTrace bool
	// Observers are fresh-per-run observer factories (checkers keep state,
	// so each run needs new instances). It is called once per replay.
	Observers func() []Observer
	// Visit is called after every run with the result; returning false
	// stops the exploration early. Required.
	Visit func(res *Result, err error) bool
	// Parallel is ignored.
	//
	// Deprecated: exploration is sequential. The field stays only until
	// perfbench's explorer calls, which set it to 1, drop it.
	Parallel int
}

// Explore systematically enumerates schedules of p using depth-first search
// over scheduling decision points with a preemption bound (iterative
// context bounding, Musuvathi & Qadeer). It returns a report of how far
// the search got and why it stopped. Program-level errors (deadlocks on
// some schedule, panics during a replay) are passed to Visit rather than
// aborting the search; infrastructure errors abort. When a budget or
// cancellation cuts the search off, the visited sequence is a prefix of
// the full search's, and no goroutine outlives the call.
func Explore(p *Program, opts ExploreOptions) (*ExploreReport, error) {
	if opts.Visit == nil {
		return nil, fmt.Errorf("sched: ExploreOptions.Visit is required")
	}
	var pre []int
	return exploreDFS(p, &opts, "explore",
		func(prefix []trace.TID, _ *Result, points []ChoicePoint, push func([]trace.TID), _ *flight.Track) {
			pre = preemptionPrefix(pre, points)
			expandPrefixes(points, pre, len(prefix), opts.MaxPreemptions, push)
		})
}

// expandFunc pushes the forced-decision prefixes to visit after one run:
// prefix is the prefix the run replayed, res and points its result and
// choice points, and ftrack the search's flight track (nil when not
// recording).
type expandFunc func(prefix []trace.TID, res *Result, points []ChoicePoint, push func([]trace.TID), ftrack *flight.Track)

// exploreDFS is the sequential depth-first search loop of Explore and
// ExploreDPOR: budget and run-cap checks, one panic-isolated replay per
// popped prefix, the report, the explore.* metrics, the flight spans, and
// Visit. The explorers differ only in expand; span names the search's
// flight span. Every replay runs on one replayer, closed on return.
func exploreDFS(p *Program, opts *ExploreOptions, span string, expand expandFunc) (*ExploreReport, error) {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 10000
	}
	mExploreMaxRuns.Set(int64(maxRuns))
	bud := StartBudget(opts.Budget)
	r := newReplayer()
	defer r.rt.close()
	rep := &ExploreReport{Status: StatusComplete}
	// Time in expand, the search's own bookkeeping, counted in plain
	// fields and flushed once.
	var expands, expandNs int64
	defer func() {
		mExploreExpands.Add(expands)
		mExploreExpandNs.Add(expandNs)
	}()
	var ftrack *flight.Track
	var exSpan flight.Span
	if fr := flight.Active(); fr != nil {
		ftrack = fr.Track("explore")
		exSpan = ftrack.Begin(flight.CatSched, span, 0, flight.A("max_runs", int64(maxRuns)))
		defer func() {
			exSpan.EndStr(string(rep.Status),
				flight.A("runs", int64(rep.Runs)), flight.A("states", rep.States))
		}()
	}
	// Each stack entry is a forced decision prefix.
	stack := [][]trace.TID{nil}
	push := func(np []trace.TID) { stack = append(stack, np) }
	for len(stack) > 0 {
		if st := bud.Cutoff(); st != "" {
			rep.Status = st
			ftrack.Instant(flight.CatSched, "cutoff", string(st), flight.A("runs", int64(rep.Runs)))
			break
		}
		if rep.Runs >= maxRuns {
			rep.Status = StatusBudget
			ftrack.Instant(flight.CatSched, "budget", string(StatusBudget), flight.A("runs", int64(rep.Runs)))
			break
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		var runSpan flight.Span
		if ftrack != nil {
			runSpan = ftrack.Begin(flight.CatSched, "schedule", exSpan.ID(), flight.A("depth", int64(len(prefix))))
		}
		res, points, err := r.replayPrefix(p, opts, bud.RunContext(), prefix)
		if ftrack != nil {
			EndRunSpan(runSpan, res, err)
		}
		mExploreReplays.Inc()
		if errors.Is(err, ErrCancelled) {
			// Interrupted mid-run by the deadline or a cancellation: the
			// partial run is an artifact of the cutoff, not a finding.
			rep.Status = bud.CancelStatus()
			rep.Abandoned++
			break
		}
		rep.Runs++
		mExploreRuns.Inc()
		if res != nil {
			rep.States += int64(res.Events)
			bud.AddStates(int64(res.Events))
			mExploreStates.Add(int64(res.Events))
		}
		if _, ok := err.(*ExploreError); ok { //nolint:errorlint // replayPrefix returns it unwrapped
			rep.Panics++
			ftrack.Instant(flight.CatSched, "panic", string(rep.Status), flight.A("run", int64(rep.Runs)))
		}
		if !opts.Visit(res, err) {
			rep.Abandoned += len(stack)
			return finishReport(rep), nil
		}

		t0 := time.Now()
		expand(prefix, res, points, push, ftrack)
		expandNs += time.Since(t0).Nanoseconds()
		expands++
		mExploreFrontier.SetMax(int64(len(stack)))
	}
	rep.Abandoned += len(stack)
	return finishReport(rep), nil
}

// replayer is the state a search keeps across its replays: the runtime,
// whose buffers each run recycles (see Runtime), and the search's Guided
// strategy, whose choice-point log and arena each run refills. Nothing it
// keeps reaches a Result, so Visit may retain every Result it is given.
type replayer struct {
	rt     *Runtime
	guided Guided
}

func newReplayer() *replayer {
	return &replayer{rt: newRuntime()}
}

// replayPrefix executes one guided run of prefix with panic isolation: a panic
// anywhere in the replay — the observer factory, the strategy, the
// scheduler loop, or (via the runtime's own recover) a virtual thread —
// becomes an *ExploreError, so a crashing schedule is a deterministic
// finding instead of a process abort. ctx, when non-nil, aborts the run
// cooperatively with an error wrapping ErrCancelled. The choice points it
// returns are valid until the next replay.
func (r *replayer) replayPrefix(p *Program, opts *ExploreOptions, ctx context.Context, prefix []trace.TID) (res *Result, points []ChoicePoint, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, points = nil, nil
			err = &ExploreError{Prefix: prefix, Panic: rec, Stack: debug.Stack()}
			mExplorePanics.Inc()
		}
	}()
	r.guided.Prefix = prefix
	ro := Options{Strategy: &r.guided, RecordTrace: opts.RecordTrace, Ctx: ctx}
	if opts.Observers != nil {
		ro.Observers = opts.Observers()
	}
	res, err = r.rt.run(p, ro)
	var tp *runPanic
	if errors.As(err, &tp) {
		err = &ExploreError{Prefix: prefix, Panic: tp.val, Stack: tp.stack}
		mExplorePanics.Inc()
	}
	return res, r.guided.Points, err
}

// expandPrefixes pushes the alternative forced-decision prefixes branching
// off points[prefixLen:], in the DFS expansion order (deepest decision
// first, so the search explores nearby schedules before distant ones).
// The preemption budget is read from pre, the path's running preemption
// counts (preemptionPrefix), instead of recounting points[:i] per
// decision, which was quadratic in trace depth.
func expandPrefixes(points []ChoicePoint, pre []int, prefixLen, maxPreemptions int, push func([]trace.TID)) {
	for i := len(points) - 1; i >= prefixLen; i-- {
		pt := points[i]
		used := pre[i]
		for _, alt := range pt.Runnable {
			if alt == pt.Chosen {
				continue
			}
			cost := 0
			if containsTID(pt.Runnable, pt.Current) && alt != pt.Current {
				cost = 1
			}
			if used+cost > maxPreemptions {
				continue
			}
			np := make([]trace.TID, i+1)
			for j := 0; j < i; j++ {
				np[j] = points[j].Chosen
			}
			np[i] = alt
			push(np)
		}
	}
}

// preemptionPrefix returns the running preemption counts of a decision-point
// path: out[i] = preemptionsIn(points[:i]), computed in one linear sweep
// into out's array when it is large enough.
func preemptionPrefix(out []int, points []ChoicePoint) []int {
	out = resized(out, len(points)+1)
	out[0] = 0
	for i, pt := range points {
		cost := 0
		if pt.Current >= 0 && containsTID(pt.Runnable, pt.Current) && pt.Chosen != pt.Current {
			cost = 1
		}
		out[i+1] = out[i] + cost
	}
	return out
}

// preemptionsIn counts the non-forced switches in a decision-point path:
// points where the previously running thread was still runnable but a
// different thread was chosen.
func preemptionsIn(points []ChoicePoint) int {
	n := 0
	for _, pt := range points {
		if pt.Current >= 0 && containsTID(pt.Runnable, pt.Current) && pt.Chosen != pt.Current {
			n++
		}
	}
	return n
}
