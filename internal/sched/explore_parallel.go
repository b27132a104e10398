package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Parallel exploration with a deterministic merge.
//
// Every entry of the sequential DFS stack is a forced-decision prefix whose
// replay is an independent, fully deterministic Program run — the only
// ordering constraint in Explore is that Visit observes results in DFS
// order and that a run's choice points seed its children. That makes the
// search an ideal work-sharing problem: a driver goroutine walks the exact
// sequential stack discipline while a pool of workers speculatively replays
// pending prefixes pulled from a shared LIFO frontier. Because replays are
// deterministic, a speculative result is byte-identical to what the driver
// would have computed itself, so the merged visit sequence — and therefore
// every table, figure, and certificate built on top — is bit-identical to
// the sequential search, at any worker count.
//
// The frontier is kept in the same order as the driver's stack: workers
// take from the top, which is exactly the prefix the driver needs next, so
// speculation always runs ahead of the merge point rather than sideways.
// When the driver reaches a task no worker has claimed, it claims and
// replays the task inline; when a worker got there first, the driver blocks
// on that task alone while the pool keeps filling the results of deeper
// prefixes.

// exTask is one forced-decision prefix queued for replay.
type exTask struct {
	prefix []trace.TID
	done   chan struct{} // closed once res/err/points are filled
	res    *Result
	err    error
	points []ChoicePoint
	flow   uint64 // flight-recorder flow ID (steal arrow); 0 when not recording
}

// exFrontier is the shared LIFO of unclaimed tasks. Claiming removes a task,
// so each task is replayed exactly once.
type exFrontier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stack  []*exTask
	closed bool
}

func newExFrontier() *exFrontier {
	f := &exFrontier{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

func (f *exFrontier) push(t *exTask) {
	f.mu.Lock()
	f.stack = append(f.stack, t)
	depth := len(f.stack)
	f.mu.Unlock()
	mExploreFrontier.SetMax(int64(depth))
	f.cond.Signal()
}

// take blocks until a task is available (returning the top of the stack) or
// the frontier is closed (returning nil).
func (f *exFrontier) take() *exTask {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.stack) == 0 && !f.closed {
		f.cond.Wait()
	}
	if len(f.stack) == 0 {
		return nil
	}
	t := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return t
}

// claim removes t if it is still unclaimed and reports success. The driver
// only ever claims the task it is about to visit, which is the most recent
// unclaimed push — the top of the stack — so an identity check there
// suffices: anything else means a worker already owns t.
func (f *exFrontier) claim(t *exTask) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.stack); n > 0 && f.stack[n-1] == t {
		f.stack = f.stack[:n-1]
		return true
	}
	return false
}

func (f *exFrontier) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// replayTask executes one guided run and publishes the outcome. The done
// channel is closed unconditionally — and replayPrefix recovers panics
// anywhere in the replay — so a crashing schedule can never leave the
// driver blocked on t.done.
func replayTask(p *Program, opts *ExploreOptions, pool *threadPool, ctx context.Context, t *exTask) {
	defer close(t.done)
	t.res, t.points, t.err = replayPrefix(p, opts, pool, ctx, t.prefix)
	mExploreReplays.Inc()
}

// exploreParallel is Explore's work-sharing engine for opts.Parallel > 1.
//
// Budgets and cancellation are checked only on the driver, immediately
// before it claims or merges the next task — never on workers — so the
// cutoff lands between two visits and the visited sequence stays exactly
// the sequential prefix. On cutoff the deferred close/wait drains the
// pool: idle workers wake from take() and exit, and in-flight replays
// either finish or (when a cancellation context is set) abort at their
// next per-1024-event check. The driver and the workers run their
// replays' threads on one shared pool, closed after the workers exit.
func exploreParallel(p *Program, opts ExploreOptions) (*ExploreReport, error) {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 10000
	}
	mExploreMaxRuns.Set(int64(maxRuns))
	bud := StartBudget(opts.Budget)
	defer bud.Stop()
	pool := newThreadPool()
	defer pool.close()
	fr := flight.Active()
	var ftrack *flight.Track
	var exSpan flight.Span
	frontier := newExFrontier()
	var wg sync.WaitGroup
	for w := 0; w < opts.Parallel-1; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wtrack *flight.Track
			if fr != nil {
				wtrack = fr.Track(fmt.Sprintf("explore-worker-%d", w+1))
			}
			for {
				idle := time.Now()
				t := frontier.take()
				mWorkerIdleNs.Add(int64(time.Since(idle)))
				if t == nil {
					return
				}
				var replaySpan flight.Span
				if wtrack != nil {
					wtrack.FlowIn(flight.CatSched, "steal", t.flow)
					replaySpan = wtrack.Begin(flight.CatSched, "replay", 0,
						flight.A("depth", int64(len(t.prefix))))
				}
				busy := time.Now()
				replayTask(p, &opts, pool, bud.RunContext(), t)
				mWorkerBusyNs.Add(int64(time.Since(busy)))
				mExploreSteals.Inc()
				if wtrack != nil {
					EndRunSpan(replaySpan, t.res, t.err)
				}
			}
		}(w)
	}
	// Stop the pool (abandoning unclaimed speculation) and wait for in-
	// flight replays before returning, so no goroutine outlives the search.
	defer func() {
		frontier.close()
		wg.Wait()
	}()

	newTask := func(prefix []trace.TID) *exTask {
		t := &exTask{prefix: prefix, done: make(chan struct{})}
		if ftrack != nil {
			// The flow arrow starts at the push; it lands wherever a worker
			// steals the task (a driver inline replay leaves it dangling,
			// which Perfetto tolerates).
			t.flow = fr.NewID()
			ftrack.FlowOut(flight.CatSched, "steal", t.flow)
		}
		frontier.push(t)
		return t
	}

	if fr != nil {
		ftrack = fr.Track("explore-driver")
		exSpan = ftrack.Begin(flight.CatSched, "explore", 0,
			flight.A("max_runs", int64(maxRuns)), flight.A("workers", int64(opts.Parallel)))
	}
	// stack mirrors the sequential DFS stack; frontier holds the subset of
	// it not yet claimed by a worker, in the same order.
	stack := []*exTask{newTask(nil)}
	rep := &ExploreReport{Status: StatusComplete}
	if ftrack != nil {
		defer func() {
			exSpan.EndStr(string(rep.Status),
				flight.A("runs", int64(rep.Runs)), flight.A("states", rep.States))
		}()
	}
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
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var runSpan flight.Span
		if ftrack != nil {
			runSpan = ftrack.Begin(flight.CatSched, "schedule", exSpan.ID(),
				flight.A("depth", int64(len(t.prefix))))
		}
		if frontier.claim(t) {
			replayTask(p, &opts, pool, bud.RunContext(), t)
		} else {
			<-t.done
		}
		if ftrack != nil {
			EndRunSpan(runSpan, t.res, t.err)
		}
		if errors.Is(t.err, ErrCancelled) {
			rep.Status = bud.CancelStatus()
			rep.Abandoned++
			break
		}
		rep.Runs++
		mExploreRuns.Inc()
		if t.res != nil {
			rep.States += int64(t.res.Events)
			bud.AddStates(int64(t.res.Events))
			mExploreStates.Add(int64(t.res.Events))
		}
		if _, ok := t.err.(*ExploreError); ok { //nolint:errorlint // replayPrefix returns it unwrapped
			rep.Panics++
			ftrack.Instant(flight.CatSched, "panic", string(rep.Status), flight.A("run", int64(rep.Runs)))
		}
		if !opts.Visit(t.res, t.err) {
			rep.Abandoned += len(stack)
			return finishReport(rep), nil
		}
		expandPrefixes(t.points, len(t.prefix), opts.MaxPreemptions, func(np []trace.TID) {
			stack = append(stack, newTask(np))
		})
	}
	rep.Abandoned += len(stack)
	return finishReport(rep), nil
}
