// Package atom implements an Atomizer-style dynamic atomicity checker
// (Flanagan & Freund, POPL 2004) — Baseline 3 of the checker comparison.
//
// Atomicity is the property the paper positions cooperability against: an
// atomic block must be reducible as a whole, with *no* interference points
// allowed inside it, whereas cooperability permits interference anywhere a
// yield is written. The checker runs the same Lipton phase automaton as the
// cooperability checker but over programmer-specified atomic blocks
// (trace.OpAtomicBegin/End) or, in MethodsAtomic mode, over every method
// span — Atomizer's classic default that "methods are intended atomic",
// which is what produces the benign warnings cooperability avoids.
package atom

import (
	"fmt"

	"repro/internal/movers"
	"repro/internal/trace"
)

// Violation reports an atomicity failure inside a block.
type Violation struct {
	// Event is the offending operation.
	Event trace.Event
	// Mover is its class (right or non post-commit, or Boundary for a
	// blocking operation inside an atomic block).
	Mover movers.Mover
	// Commit is the event that committed the enclosing block, when the
	// failure is a phase violation (zero Event otherwise).
	Commit trace.Event
	// BlockStart is the trace index where the violated block began.
	BlockStart int
	// Blocking marks wait/yield/join inside an atomic block, which breaks
	// atomicity regardless of phase.
	Blocking bool
}

// String renders a compact description.
func (v Violation) String() string {
	if v.Blocking {
		return fmt.Sprintf("atomicity violation: T%d %s at #%d blocks inside atomic block (from #%d)",
			v.Event.Tid, v.Event.Op, v.Event.Idx, v.BlockStart)
	}
	return fmt.Sprintf("atomicity violation: T%d %s(%d) at #%d is a %s mover after commit at #%d (block from #%d)",
		v.Event.Tid, v.Event.Op, v.Event.Target, v.Event.Idx, v.Mover, v.Commit.Idx, v.BlockStart)
}

// Options configures the checker.
type Options struct {
	// MethodsAtomic treats every method span as an atomic block instead of
	// (or in addition to) explicit OpAtomicBegin/End blocks.
	MethodsAtomic bool
	// KnownRaces enables two-pass mover classification, as in core.
	KnownRaces map[uint64]bool
	// RaceOnsets replays the default online classification from a
	// completed race pass (race.Detector.RaceOnsets): identical warnings
	// to online mode without the embedded detector's cost. Takes
	// precedence over KnownRaces; the fused pipeline uses this.
	RaceOnsets map[uint64]int
}

type threadState struct {
	depth      int // nesting depth of active atomic region
	phase      phase
	commit     trace.Event
	blockStart int
	violated   bool // report at most once per block instance
}

type phase uint8

const (
	pre phase = iota
	post
)

// Checker is the streaming atomicity analysis; it implements
// sched.Observer.
type Checker struct {
	opts Options
	cls  *movers.Classifier
	// allBoth caches Classifier.AccessesAllBoth: with empty race knowledge
	// every access is a both mover, which the phase automaton ignores, so
	// the batch path can retire accesses with just the event count.
	allBoth bool
	// threads is dense per-TID state: the runtime assigns consecutive ids,
	// so a slice replaces the former map on the per-event hot path (the
	// zero threadState is exactly a fresh one: depth 0, pre-commit).
	threads []threadState

	violations []Violation
	seen       map[vioKey]bool
	blocks     int // atomic block instances observed
	events     int
}

type vioKey struct {
	loc      trace.LocID
	op       trace.Op
	blocking bool
}

// New returns a checker. Atomicity uses the pure Lipton policy: fork is a
// left mover and join a right mover (no cooperative boundaries exist inside
// an atomic block by definition).
func New(opts Options) *Checker {
	policy := movers.Policy{ForkIsBoundary: false, JoinIsBoundary: false}
	var cls *movers.Classifier
	switch {
	case opts.RaceOnsets != nil:
		cls = movers.NewWithRaceOnsets(policy, opts.RaceOnsets)
	case opts.KnownRaces != nil:
		cls = movers.NewWithKnownRaces(policy, opts.KnownRaces)
	default:
		cls = movers.NewOnline(policy)
	}
	return &Checker{
		opts:    opts,
		cls:     cls,
		allBoth: cls.AccessesAllBoth(),
		seen:    make(map[vioKey]bool),
	}
}

func (c *Checker) state(t trace.TID) *threadState {
	if int(t) < len(c.threads) {
		return &c.threads[t]
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
	return &c.threads[t]
}

// Event processes one event in trace order.
func (c *Checker) Event(e trace.Event) {
	c.events++
	s := c.state(e.Tid)

	enter := e.Op == trace.OpAtomicBegin || (c.opts.MethodsAtomic && e.Op == trace.OpEnter)
	exit := e.Op == trace.OpAtomicEnd || (c.opts.MethodsAtomic && e.Op == trace.OpExit)
	switch {
	case enter:
		s.depth++
		if s.depth == 1 {
			s.phase = pre
			s.commit = trace.Event{}
			s.blockStart = e.Idx
			s.violated = false
			c.blocks++
		}
		return
	case exit:
		if s.depth > 0 {
			s.depth--
		}
		return
	}

	m := c.cls.Classify(e)
	if s.depth == 0 {
		return // outside atomic blocks nothing is checked
	}

	switch m {
	case movers.Boundary:
		// Yield, wait, or thread boundary inside an atomic block: the
		// block cannot be atomic.
		c.report(s, Violation{Event: e, Mover: m, BlockStart: s.blockStart, Blocking: true})
	case movers.Right:
		if s.phase == post {
			c.report(s, Violation{Event: e, Mover: m, Commit: s.commit, BlockStart: s.blockStart})
		}
	case movers.Left:
		if s.phase == pre {
			s.phase = post
			s.commit = e
		}
	case movers.Non:
		if s.phase == post {
			c.report(s, Violation{Event: e, Mover: m, Commit: s.commit, BlockStart: s.blockStart})
		} else {
			s.phase = post
			s.commit = e
		}
	case movers.Both, movers.None:
	}
}

// FlightName names the checker's batch spans in flight recordings; it
// implements sched.FlightNamed.
func (c *Checker) FlightName() string { return "atomizer" }

// ObserveBatch processes one batch of events in trace order; it implements
// sched.Observer.
//
// With empty race knowledge (allBoth) an access classifies Both, and Event
// reduces to the event count for it: Both is a no-op in the phase switch
// whether or not a block is open, and state materialization is deferred to
// the thread's next structural event. That case retires inline here.
func (c *Checker) ObserveBatch(batch []trace.Event) {
	if c.allBoth {
		for i := range batch {
			if op := batch[i].Op; op == trace.OpRead || op == trace.OpWrite {
				c.events++
				continue
			}
			c.Event(batch[i])
		}
		return
	}
	for i := range batch {
		c.Event(batch[i])
	}
}

func (c *Checker) report(s *threadState, v Violation) {
	if s.violated {
		return // one report per block instance keeps counts comparable
	}
	s.violated = true
	key := vioKey{loc: v.Event.Loc, op: v.Event.Op, blocking: v.Blocking}
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.violations = append(c.violations, v)
}

// Violations returns the deduplicated reports.
func (c *Checker) Violations() []Violation { return c.violations }

// Atomic reports whether no violations were observed.
func (c *Checker) Atomic() bool { return len(c.violations) == 0 }

// Blocks returns the number of atomic block instances observed — the
// specification burden the paper compares against yield counts.
func (c *Checker) Blocks() int { return c.blocks }

// Events returns the number of events processed.
func (c *Checker) Events() int { return c.events }

// Analyze runs a fresh checker over a complete trace.
func Analyze(tr *trace.Trace, opts Options) *Checker {
	c := New(opts)
	for _, e := range tr.Events {
		c.Event(e)
	}
	return c
}
