package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/trace"
)

// Status classifies how a long-running search ended. Every exploration
// entry point reports one, so a run cut short by a budget or a fault is an
// explicit partial result instead of a silent truncation.
type Status string

const (
	// StatusComplete: the search drained its frontier (or its Visit callback
	// chose to stop) without hitting a budget or a fault.
	StatusComplete Status = "complete"
	// StatusBudget: a resource budget (MaxRuns, MaxStates, or MemBudget)
	// cut the search off with frontier left unexplored.
	StatusBudget Status = "budget-exhausted"
	// StatusDeadline: the budget context's deadline expired.
	StatusDeadline Status = "deadline"
	// StatusCancelled: the caller's context was cancelled (SIGINT in the
	// CLI tools).
	StatusCancelled Status = "cancelled"
	// StatusPanic: the search itself ran to completion, but at least one
	// schedule's replay panicked and was reported as a finding.
	StatusPanic Status = "worker-panic"
)

// Budget bounds a long-running exploration. The zero value imposes no
// bounds beyond ExploreOptions.MaxRuns.
type Budget struct {
	// Ctx cancels the search cooperatively, and its deadline is the
	// search's wall-clock budget: the search loop checks it before every
	// visit, and each replay checks it every 1024 events, so cancellation
	// never leaks goroutines or blocks on a long run.
	Ctx context.Context
	// MaxStates stops the search once the visited runs have produced this
	// many instrumented events in total; 0 means unlimited.
	MaxStates int64
	// MemBudget stops the search once the process heap exceeds this many
	// bytes (sampled between runs, not per event); 0 means unlimited.
	MemBudget int64
}

// ExploreReport summarizes an exploration: how far it got and why it
// stopped. Up to the cutoff the visited sequence is a prefix of the full
// search's, so a partial report is still a deterministic, reusable result.
type ExploreReport struct {
	// Runs is the number of schedules visited.
	Runs int
	// States is the total instrumented events across visited runs.
	States int64
	// Abandoned counts frontier prefixes that were queued but never
	// visited because the search was cut off.
	Abandoned int
	// Panics counts replays that panicked and were reported to Visit as
	// *ExploreError findings.
	Panics int
	// Status records why the search ended.
	Status Status
}

// ErrCancelled is wrapped by run errors when Options.Ctx fires mid-run.
// The explorers treat such a run as an artifact of the cutoff (never
// visited); other Run callers can errors.Is against it.
var ErrCancelled = errors.New("sched: run cancelled")

// ExploreError is a panic recovered during one schedule's replay — in the
// replay's own code (strategy, scheduler loop) or inside a virtual thread
// (workload body). It is handed to Visit as the run's
// error, so a crashing schedule is a reported finding, not a process
// abort, and because replays are deterministic it appears in the same
// visit slot on every search.
type ExploreError struct {
	// Prefix is the forced-decision prefix whose replay panicked;
	// re-exploring it reproduces the crash.
	Prefix []trace.TID
	// Panic is the recovered panic value.
	Panic any
	// Stack is the stack captured at the recovery point.
	Stack []byte
}

func (e *ExploreError) Error() string {
	return fmt.Sprintf("sched: panic replaying prefix %v: %v", e.Prefix, e.Panic)
}

// runPanic is the structured error the runtime reports for a panic it
// recovered during a run — inside a virtual thread, or in the final
// observer flush on run's caller; the explorers rewrap it into an
// *ExploreError carrying the schedule prefix.
type runPanic struct {
	where string // "T1 (worker)", or the final flush
	val   any
	stack []byte
}

func (e *runPanic) Error() string {
	return fmt.Sprintf("sched: panic in %s: %v", e.where, e.val)
}

// ContextStatus maps a context error to the Status it implies: nil →
// StatusComplete, DeadlineExceeded → StatusDeadline, anything else →
// StatusCancelled.
func ContextStatus(err error) Status {
	switch {
	case err == nil:
		return StatusComplete
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	default:
		return StatusCancelled
	}
}

// memCheckEvery is how many Cutoff calls elapse between heap samples:
// runtime.ReadMemStats stops the world, so it must stay off the per-run
// path when the search is cheap.
const memCheckEvery = 32

// BudgetTracker monitors one Budget across a search loop. The explorers
// create one internally; other long-running loops (the CLI schedule
// battery) share the same cutoff logic through it.
type BudgetTracker struct {
	ctx       context.Context
	runCtx    context.Context // nil when no cancellation source exists
	maxStates int64
	memBudget int64
	states    int64
	memTick   int
}

// StartBudget begins tracking b.
func StartBudget(b Budget) *BudgetTracker {
	t := &BudgetTracker{
		ctx:       b.Ctx,
		runCtx:    b.Ctx,
		maxStates: b.MaxStates,
		memBudget: b.MemBudget,
	}
	if t.ctx == nil {
		t.ctx = context.Background()
	}
	if b.MaxStates > 0 {
		mExploreBudgetStates.Set(b.MaxStates)
	}
	if b.MemBudget > 0 {
		mExploreBudgetMem.Set(b.MemBudget)
	}
	return t
}

// RunContext is the context individual runs should carry in Options.Ctx;
// nil when the budget has no cancellation source, keeping the per-event
// hot path free of context checks.
func (t *BudgetTracker) RunContext() context.Context { return t.runCtx }

// AddStates records n more visited instrumented events.
func (t *BudgetTracker) AddStates(n int64) { t.states += n }

// Cutoff returns the Status that should end the search now, or "" while
// the search may continue.
func (t *BudgetTracker) Cutoff() Status {
	if err := t.ctx.Err(); err != nil {
		return ContextStatus(err)
	}
	if t.maxStates > 0 && t.states >= t.maxStates {
		return StatusBudget
	}
	if t.memBudget > 0 {
		if t.memTick%memCheckEvery == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if int64(ms.HeapAlloc) > t.memBudget {
				return StatusBudget
			}
		}
		t.memTick++
	}
	return ""
}

// CancelStatus maps the tracker's context state to a cutoff Status when a
// run came back ErrCancelled, defaulting to StatusCancelled if the
// context has not (yet) recorded an error.
func (t *BudgetTracker) CancelStatus() Status {
	if st := ContextStatus(t.ctx.Err()); st != StatusComplete {
		return st
	}
	return StatusCancelled
}

// finishReport settles the final status (a completed search that saw
// panics degrades to StatusPanic; cutoffs keep their cause) and flushes
// the cutoff telemetry.
func finishReport(rep *ExploreReport) *ExploreReport {
	if rep.Status == StatusComplete && rep.Panics > 0 {
		rep.Status = StatusPanic
	}
	mExploreAbandoned.Set(int64(rep.Abandoned))
	switch rep.Status {
	case StatusCancelled:
		mExploreCancelled.Inc()
	case StatusDeadline:
		mExploreDeadline.Inc()
	case StatusBudget:
		mExploreBudgetHit.Inc()
	}
	return rep
}
