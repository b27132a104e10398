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
	return exploreDFS(p, &opts, "explore",
		func(f frontier, _ *Result, g *Guided, push func(frontier), _ *flight.Track) {
			expandPrefixes(g, f.pre, opts.MaxPreemptions, push)
		})
}

// frontier is an entry of the search's stack: a forced-decision prefix to
// replay and the preemptions it makes. The expansion that pushes it knows
// that count (the count at the branch point plus the branch's cost). Past
// its prefix a replay never preempts, so pre is also the count at every
// decision the replay records.
type frontier struct {
	prefix []trace.TID
	pre    int
}

// expandFunc pushes the frontier entries to visit after one run: f is the
// entry the run replayed, res its result, g the search's Guided holding
// the run's decision log (its branchable points and path), and ftrack the
// search's flight track (nil when not recording).
type expandFunc func(f frontier, res *Result, g *Guided, push func(frontier), ftrack *flight.Track)

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
	stack := []frontier{{}}
	push := func(f frontier) { stack = append(stack, f) }
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
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		var runSpan flight.Span
		if ftrack != nil {
			runSpan = ftrack.Begin(flight.CatSched, "schedule", exSpan.ID(), flight.A("depth", int64(len(f.prefix))))
		}
		res, err := r.replayPrefix(p, opts, bud.RunContext(), f)
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
		expand(f, res, &r.guided, push, ftrack)
		expandNs += time.Since(t0).Nanoseconds()
		expands++
		mExploreFrontier.SetMax(int64(len(stack)))
	}
	rep.Abandoned += len(stack)
	return finishReport(rep), nil
}

// replayer is the state a search keeps across its replays: the runtime,
// whose buffers each run recycles (see Runtime), and the search's Guided
// strategy, whose decision log and arena each run refills. Nothing it
// keeps reaches a Result, so Visit may retain every Result it is given.
type replayer struct {
	rt     *Runtime
	guided Guided
}

func newReplayer() *replayer {
	return &replayer{rt: newRuntime()}
}

// replayPrefix executes one guided run of f's prefix with panic isolation:
// a panic anywhere in the replay — the strategy, the scheduler loop, or
// (via the runtime's own recover) a virtual thread — becomes an
// *ExploreError, so a crashing schedule is a deterministic finding instead
// of a process abort. ctx, when non-nil, aborts the run cooperatively with
// an error wrapping ErrCancelled. The run's decision log is left in
// r.guided until the next replay: when f.pre spends the bound, Guided
// settles the forced decisions past the prefix without recording a point,
// since no branch there fits the bound. A panic the recover catches leaves
// the log empty.
func (r *replayer) replayPrefix(p *Program, opts *ExploreOptions, ctx context.Context, f frontier) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res = nil
			r.guided.Reset()
			err = &ExploreError{Prefix: f.prefix, Panic: rec, Stack: debug.Stack()}
			mExplorePanics.Inc()
		}
	}()
	r.guided.Prefix = f.prefix
	r.guided.spent = f.pre >= opts.MaxPreemptions
	res, err = r.rt.run(p, Options{Strategy: &r.guided, RecordTrace: opts.RecordTrace, Ctx: ctx})
	var tp *runPanic
	if errors.As(err, &tp) {
		err = &ExploreError{Prefix: f.prefix, Panic: tp.val, Stack: tp.stack}
		mExplorePanics.Inc()
	}
	return res, err
}

// expandPrefixes pushes the alternative forced-decision prefixes branching
// off the decisions g recorded, in the DFS expansion order (deepest
// decision first, so the search explores nearby schedules before distant
// ones), each with its preemption count. used is the run's count at every
// recorded decision: the preemptions its prefix made.
func expandPrefixes(g *Guided, used, maxPreemptions int, push func(frontier)) {
	for i := len(g.Points) - 1; i >= 0; i-- {
		pt := &g.Points[i]
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
			push(frontier{g.prefixAt(int(pt.decision), alt), used + cost})
		}
	}
}
