// Package core implements the paper's primary contribution: the dynamic
// cooperability checker.
//
// Cooperative reasoning annotates a program with explicit yield statements;
// between two yields of a thread (a *transaction*) the program must behave
// as if executed serially, so the programmer may reason sequentially
// everywhere except at yield annotations. A program is *cooperable* when
// every preemptive execution is equivalent — commuting adjacent
// non-conflicting operations — to a yield-respecting cooperative execution.
//
// The checker verifies, per Lipton's theory of reduction, that every
// transaction observed in a trace matches the reducible pattern
//
//	(right|both)* [non] (left|both)*
//
// using a two-phase automaton per thread: a transaction starts in the
// pre-commit phase, accepting right and both movers; the first non or left
// mover commits it to the post-commit phase; any subsequent right or non
// mover is a cooperability violation — evidence that the code needs a yield
// annotation at that point (or a synchronization fix).
package core

import (
	"fmt"

	"repro/internal/movers"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Phase is a thread's position within its current transaction.
type Phase uint8

const (
	// PreCommit accepts right and both movers.
	PreCommit Phase = iota
	// PostCommit accepts left and both movers.
	PostCommit
)

// String names the phase.
func (p Phase) String() string {
	if p == PreCommit {
		return "pre-commit"
	}
	return "post-commit"
}

// Violation is one cooperability failure: the event at which the reduction
// pattern broke, plus the commit event that had already ended the
// transaction's pre-commit phase.
type Violation struct {
	// Event is the offending operation (a right or non mover observed
	// post-commit).
	Event trace.Event
	// Mover is the offending event's class.
	Mover movers.Mover
	// Commit is the event that moved the transaction to post-commit.
	Commit trace.Event
	// CommitMover is the commit event's class (left or non).
	CommitMover movers.Mover
	// TxStart is the trace index at which the transaction began.
	TxStart int
}

// String renders a compact one-line description.
func (v Violation) String() string {
	return fmt.Sprintf("cooperability violation: T%d %s(%d) at #%d is a %s mover after commit %s(%d) at #%d (tx from #%d) — yield needed",
		v.Event.Tid, v.Event.Op, v.Event.Target, v.Event.Idx, v.Mover,
		v.Commit.Op, v.Commit.Target, v.Commit.Idx, v.TxStart)
}

// Options configures a Checker.
type Options struct {
	// Policy is the mover-classification policy.
	Policy movers.Policy
	// KnownRaces enables two-pass mode: the racy-variable set from a prior
	// race-detection pass over the same trace(s). Nil selects online mode.
	KnownRaces map[uint64]bool
	// Yields treats events at these source locations as if a yield
	// annotation immediately preceded them. Yield inference feeds its
	// candidate set back through this to validate it.
	Yields map[trace.LocID]bool
	// StopAfterViolation leaves the automaton post-commit after reporting
	// (strict mode). The default resets the transaction as if the inferred
	// yield had been present, which keeps later reports meaningful and is
	// what yield inference counts.
	StopAfterViolation bool
	// MaxViolations caps retained reports (0 = 10000).
	MaxViolations int
}

type threadState struct {
	auto        Automaton
	live        bool // the thread has been observed (txStart is meaningful)
	txStart     int
	txLen       int
	commit      trace.Event
	commitMover movers.Mover
	// methodStack tracks Enter/Exit spans for per-method statistics.
	methodStack []uint64
}

// Stats aggregates per-run numbers consumed by the experiment tables.
type Stats struct {
	// Events is the number processed.
	Events int
	// Transactions is the number of completed (boundary-terminated)
	// transactions, counting resets after violations.
	Transactions int
	// MaxTxLen is the largest observed transaction, in events.
	MaxTxLen int
	// ExplicitYields counts OpYield events.
	ExplicitYields int
	// ImplicitYields counts events whose location was in Options.Yields.
	ImplicitYields int
}

// Checker is the streaming cooperability analysis. It implements
// sched.Observer, so it can run online inside the virtual runtime or over a
// recorded trace via Analyze.
type Checker struct {
	opts Options
	cls  *movers.Classifier
	// allBoth caches Classifier.AccessesAllBoth (two-pass mode with an empty
	// racy set): every access is then a both mover, whose automaton step is
	// OutcomeAdvance, so the batch path retires accesses without classifying.
	allBoth bool
	// threads is dense per-TID state: the runtime assigns consecutive ids,
	// so a slice replaces the former map on the per-event hot path.
	threads []threadState

	violations []Violation
	seen       vioSet
	dropped    int

	// yieldLocs is Options.Yields flattened to a bitset indexed by LocID;
	// locations past the end were interned after the option set was built
	// and therefore cannot be in it.
	yieldLocs []bool

	// yieldingMethods collects method ids that contained a yield point or a
	// violation (i.e. methods that are not yield-free).
	yieldingMethods map[uint64]bool
	// seenMethods collects every method id observed.
	seenMethods map[uint64]bool

	stats   Stats
	current int // current event index (from Event.Idx)

	// Telemetry, counted in plain fields (a checker is single-goroutine
	// per run) and flushed to the obs registry by FlushMetrics: commits
	// counts PreCommit→PostCommit transitions (the automaton's slow path;
	// both-mover events that keep the phase are the fast path).
	commits       int
	flushedEvents int
	flushedTx     int
	flushedVios   int
}

type vioKey struct {
	loc       trace.LocID
	op        trace.Op
	mover     movers.Mover
	commitLoc trace.LocID
	commitOp  trace.Op
}

// New returns a checker with the given options.
func New(opts Options) *Checker {
	var cls *movers.Classifier
	if opts.KnownRaces != nil {
		cls = movers.NewWithKnownRaces(opts.Policy, opts.KnownRaces)
	} else {
		cls = movers.NewOnline(opts.Policy)
	}
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 10000
	}
	c := &Checker{
		opts:            opts,
		cls:             cls,
		allBoth:         cls.AccessesAllBoth(),
		yieldingMethods: make(map[uint64]bool),
		seenMethods:     make(map[uint64]bool),
	}
	if len(opts.Yields) > 0 {
		max := trace.LocID(0)
		for loc := range opts.Yields {
			if loc > max {
				max = loc
			}
		}
		c.yieldLocs = make([]bool, max+1)
		for loc, on := range opts.Yields {
			if on && loc >= 0 {
				c.yieldLocs[loc] = true
			}
		}
	}
	return c
}

// Classifier exposes the underlying mover classifier (and, in online mode,
// its embedded race detector).
func (c *Checker) Classifier() *movers.Classifier { return c.cls }

// HintEvents presizes the checker's thread states, and in online mode the
// classifier's embedded race detector, for a trace of n events; Analyze
// passes the trace's exact length. A no-op once events have been
// processed.
func (c *Checker) HintEvents(n int) {
	if n <= 0 || c.stats.Events > 0 {
		return
	}
	if c.threads == nil {
		c.threads = make([]threadState, 0, 16)
	}
	c.cls.HintEvents(n)
}

// FlightName names the checker's batch spans in flight recordings; it
// implements sched.FlightNamed.
func (c *Checker) FlightName() string { return "coop" }

// ObserveBatch processes one batch of events in trace order; it implements
// sched.Observer.
//
// When the racy set is known empty (allBoth) an access that carries no
// inferred-yield annotation classifies Both, and Event reduces to counters
// plus a transaction-length tick — the automaton's Both step is
// OutcomeAdvance with no phase effect. That case retires inline here;
// structural events and annotated locations take the full path.
func (c *Checker) ObserveBatch(batch []trace.Event) {
	if c.allBoth {
		for i := range batch {
			e := batch[i]
			if (e.Op == trace.OpRead || e.Op == trace.OpWrite) &&
				!(e.Loc > 0 && int(e.Loc) < len(c.yieldLocs) && c.yieldLocs[e.Loc]) {
				c.stats.Events++
				c.current = e.Idx
				c.state(e.Tid).txLen++
				continue
			}
			c.Event(e)
		}
		return
	}
	for i := range batch {
		c.Event(batch[i])
	}
}

func (c *Checker) state(t trace.TID) *threadState {
	if int(t) < len(c.threads) {
		if s := &c.threads[t]; s.live {
			return s
		}
	}
	return c.stateSlow(t)
}

func (c *Checker) stateSlow(t trace.TID) *threadState {
	if n := int(t) + 1; n > len(c.threads) {
		if n > cap(c.threads) {
			grown := make([]threadState, n, 2*n)
			copy(grown, c.threads)
			c.threads = grown
		} else {
			c.threads = c.threads[:n]
		}
	}
	s := &c.threads[t]
	if !s.live {
		s.live = true
		s.txStart = c.current
	}
	return s
}

// Event processes one event in trace order.
func (c *Checker) Event(e trace.Event) {
	c.stats.Events++
	c.current = e.Idx
	s := c.state(e.Tid)

	switch e.Op {
	case trace.OpEnter:
		c.seenMethods[e.Target] = true
		s.methodStack = append(s.methodStack, e.Target)
	case trace.OpExit:
		if n := len(s.methodStack); n > 0 {
			s.methodStack = s.methodStack[:n-1]
		}
	}

	// Programmer-specified or inferred yield annotation before this event.
	if e.Loc > 0 && int(e.Loc) < len(c.yieldLocs) && c.yieldLocs[e.Loc] {
		c.stats.ImplicitYields++
		c.markYieldPoint(s)
		c.resetTx(s, e.Idx)
	}

	m := c.cls.Classify(e)
	s.txLen++

	// The shared reduction automaton (automaton.go) makes the phase
	// decision; the checker layers event bookkeeping (commit events,
	// transaction boundaries, violation reports) on its outcome.
	switch s.auto.Step(m) {
	case OutcomeReset:
		if e.Op == trace.OpYield {
			c.stats.ExplicitYields++
		}
		c.markYieldPoint(s)
		// Boundary placement follows mover direction: release-like
		// scheduling points (yield, wait's release half, fork, thread
		// boundaries) end their transaction inclusively, while join — which
		// blocks first and then acquires the child's state — cuts *before*
		// itself and opens the next transaction as its first (right-mover-
		// like) operation. Including join in the previous transaction would
		// wrongly demand the child's final events commute around it.
		if e.Op == trace.OpJoin {
			c.resetTx(s, e.Idx)
		} else {
			c.resetTx(s, e.Idx+1)
		}
	case OutcomeCommit:
		c.commits++
		s.commit = e
		s.commitMover = m
	case OutcomeViolation:
		c.report(s, e, m)
	case OutcomeAdvance:
		// No phase effect.
	}
}

// markYieldPoint records that the innermost active method of s contains a
// cooperative scheduling point, so it is not yield-free.
func (c *Checker) markYieldPoint(s *threadState) {
	if n := len(s.methodStack); n > 0 {
		c.yieldingMethods[s.methodStack[n-1]] = true
	}
}

func (c *Checker) resetTx(s *threadState, nextStart int) {
	if s.txLen > c.stats.MaxTxLen {
		c.stats.MaxTxLen = s.txLen
	}
	s.txLen = 0
	c.stats.Transactions++
	s.auto.Reset()
	s.txStart = nextStart
	s.commit = trace.Event{}
	s.commitMover = movers.None
}

func (c *Checker) report(s *threadState, e trace.Event, m movers.Mover) {
	v := Violation{Event: e, Mover: m, Commit: s.commit, CommitMover: s.commitMover, TxStart: s.txStart}
	key := vioKey{loc: e.Loc, op: e.Op, mover: m, commitLoc: s.commit.Loc, commitOp: s.commit.Op}
	if c.seen.Add(key) {
		if len(c.violations) < c.opts.MaxViolations {
			c.violations = append(c.violations, v)
		} else {
			c.dropped++
		}
	}
	// A violation marks the enclosing method as needing a yield.
	c.markYieldPoint(s)
	if c.opts.StopAfterViolation {
		// Strict mode: undo the automaton's as-if-yield re-seeding and
		// leave the transaction post-commit.
		s.auto.SetPhase(PostCommit)
		return
	}
	// Behave as if the inferred yield were present right before e: the
	// offending event starts a fresh transaction in which it is
	// re-interpreted. The automaton's Step already re-seeded the phase
	// (pre-commit after a right mover, post-commit after a non mover);
	// preserve it across the transaction bookkeeping reset.
	phase := s.auto.Phase()
	c.resetTx(s, e.Idx)
	s.auto.SetPhase(phase)
	if m == movers.Non {
		s.commit = e
		s.commitMover = m
	}
	// A right mover keeps the fresh transaction pre-commit.
}

// Violations returns the deduplicated reports in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// Dropped returns the number of deduplicated-but-uncaptured reports beyond
// MaxViolations.
func (c *Checker) Dropped() int { return c.dropped }

// Cooperable reports whether no violations were observed.
func (c *Checker) Cooperable() bool { return len(c.violations) == 0 && c.dropped == 0 }

// Stats returns aggregate numbers for the experiment tables.
func (c *Checker) Stats() Stats { return c.stats }

// MethodsSeen returns the number of distinct methods observed.
func (c *Checker) MethodsSeen() int { return len(c.seenMethods) }

// YieldingMethods returns the ids of methods that contained a yield point
// or violation.
func (c *Checker) YieldingMethods() map[uint64]bool { return c.yieldingMethods }

// YieldFreeFraction returns the fraction of observed methods with no yield
// points — the paper's headline "most code is interference-free" metric.
// It returns 1 when no methods were observed.
func (c *Checker) YieldFreeFraction() float64 {
	total := len(c.seenMethods)
	if total == 0 {
		return 1
	}
	yielding := 0
	for m := range c.yieldingMethods {
		if c.seenMethods[m] {
			yielding++
		}
	}
	return float64(total-yielding) / float64(total)
}

// Analyze runs a fresh checker over a complete trace.
func Analyze(tr *trace.Trace, opts Options) *Checker {
	c := New(opts)
	var s flight.Span
	if fr := flight.Active(); fr != nil {
		// Same lane pool as sched.FeedTrace's per-batch checker spans, so
		// an offline coop pass lands next to the batched analyses.
		ftr := fr.Acquire("checkers")
		defer fr.Release(ftr)
		s = ftr.Begin(flight.CatChecker, "coop", 0, flight.A("events", int64(tr.Len())))
	}
	c.HintEvents(tr.Len())
	for _, e := range tr.Events {
		c.Event(e)
	}
	c.FlushMetrics()
	s.End(flight.A("violations", int64(len(c.Violations()))))
	return c
}

// AnalyzeTwoPass race-detects the trace first and then checks cooperability
// with full knowledge of racy variables, repairing the online mode's
// first-access blind spot.
func AnalyzeTwoPass(tr *trace.Trace, opts Options) *Checker {
	if opts.KnownRaces == nil {
		opts.KnownRaces = knownRacesOf(tr)
	}
	return Analyze(tr, opts)
}
