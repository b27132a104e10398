// Package lockset implements an Eraser-style lockset race detector
// (Savage et al., SOSP 1997) — the second race-detection baseline of the
// checker-comparison experiment. Unlike the happens-before detector in
// internal/race it is flow-insensitive: it warns whenever a shared-modified
// variable's candidate lockset becomes empty, which catches races that a
// particular interleaving hides but also produces the false positives
// (e.g. fork/join transfer, publication idioms) the paper-era literature
// documents.
//
// State layout follows the dense-checker design (DESIGN.md, "Analysis state
// layout"): variable states live in a paged table keyed by the near-dense
// variable ids, and per-thread held-lock multisets are small slices scanned
// linearly (lock nesting depth is tiny), so the per-event hot path does no
// map operations and no allocation. Candidate locksets are slices refined
// in place; the former heldSet, which allocated a fresh map on every
// shared-variable access, now snapshots into the variable's candidate
// slice directly.
package lockset

import (
	"fmt"
	"sort"

	"repro/internal/dense"
	"repro/internal/trace"
)

// State is a variable's position in Eraser's ownership state machine.
type State uint8

const (
	// Virgin: never accessed. (The zero value, so an untouched table slot
	// is already a valid Virgin state.)
	Virgin State = iota
	// Exclusive: accessed by a single thread so far.
	Exclusive
	// Shared: read (but not written) by multiple threads.
	Shared
	// SharedModified: written by multiple threads or written after sharing;
	// the only state in which an empty lockset warns.
	SharedModified
)

// String names the state.
func (s State) String() string {
	switch s {
	case Virgin:
		return "virgin"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case SharedModified:
		return "shared-modified"
	}
	return "invalid"
}

// Warning reports a variable whose candidate lockset became empty while
// shared-modified.
type Warning struct {
	// Var is the unprotected variable.
	Var uint64
	// Event is the access that emptied the lockset (or accessed with an
	// already-empty set).
	Event trace.Event
}

// String renders a compact description.
func (w Warning) String() string {
	return fmt.Sprintf("lockset warning: var %d accessed with empty lockset by T%d (%s) at #%d",
		w.Var, w.Event.Tid, w.Event.Op, w.Event.Idx)
}

// varState is one variable's Eraser state. The zero value is a Virgin
// variable, so paged-table slots need no initialization.
type varState struct {
	state    State
	reported bool
	owner    trace.TID
	set      []uint64 // candidate lockset; meaningful once state ≥ Shared
}

// heldLocks is one thread's lock multiset: parallel slices of lock id and
// hold count, scanned linearly. Lock nesting depth is small (single
// digits), so linear scans beat any map while allocating only when the
// depth high-water mark grows.
type heldLocks struct {
	ids []uint64
	ns  []int32
}

func (h *heldLocks) count(lock uint64) int32 {
	for i, id := range h.ids {
		if id == lock {
			return h.ns[i]
		}
	}
	return 0
}

func (h *heldLocks) add(lock uint64, delta int32) {
	for i, id := range h.ids {
		if id == lock {
			if n := h.ns[i] + delta; n >= 0 {
				h.ns[i] = n
			}
			return
		}
	}
	if delta > 0 {
		h.ids = append(h.ids, lock)
		h.ns = append(h.ns, delta)
	}
}

func (h *heldLocks) drop(lock uint64) {
	for i, id := range h.ids {
		if id == lock {
			h.ns[i] = 0
			return
		}
	}
}

// Checker is a streaming Eraser analysis; it implements sched.Observer.
//
// The int32 counters keep the struct inside its 96-byte allocation class
// (the size the pre-telemetry checker had) — growing past it measurably
// slows the per-event benchmarks. A single checker is therefore bounded
// to ~2 billion events, far beyond any trace the suite produces.
type Checker struct {
	vars     dense.Table[varState]
	held     []heldLocks // indexed by TID
	warnings []Warning
	events   int32

	// Telemetry, counted in plain fields (a checker is single-goroutine
	// per run) and flushed to the obs registry by FlushMetrics. The access
	// count is derived at flush time as events-nonAccess, so the dominant
	// read/write path carries no added work at all: nonAccess counts the
	// other ops (lock bookkeeping, boundaries), refines counts candidate-set
	// intersections (the slow path), and fastpath = accesses - refines.
	nonAccess     int32
	refines       int32
	flushedEvents int32
}

// New returns an empty lockset checker.
func New() *Checker { return &Checker{} }

func (c *Checker) locksOf(t trace.TID) *heldLocks {
	if ti := int(t); ti < len(c.held) {
		return &c.held[ti]
	}
	return c.locksOfSlow(int(t))
}

func (c *Checker) locksOfSlow(ti int) *heldLocks {
	if ti >= len(c.held) {
		if ti >= cap(c.held) {
			grown := make([]heldLocks, ti+1, 2*(ti+1))
			copy(grown, c.held)
			c.held = grown
		} else {
			c.held = c.held[:ti+1]
		}
	}
	return &c.held[ti]
}

// Event processes one event in trace order.
func (c *Checker) Event(e trace.Event) {
	c.events++
	switch e.Op {
	case trace.OpAcquire:
		c.nonAccess++
		c.locksOf(e.Tid).add(e.Target, 1)
	case trace.OpRelease:
		c.nonAccess++
		c.locksOf(e.Tid).add(e.Target, -1)
	case trace.OpWait:
		// Wait releases the guarding lock entirely; the reacquisition
		// arrives as a separate acquire event.
		c.nonAccess++
		c.locksOf(e.Tid).drop(e.Target)
	case trace.OpRead, trace.OpWrite:
		c.access(e)
	default:
		c.nonAccess++
	}
}

// FlightName names the checker's batch spans in flight recordings; it
// implements sched.FlightNamed.
func (c *Checker) FlightName() string { return "eraser" }

// ObserveBatch processes one batch of events in trace order; it implements
// sched.Observer.
//
// The Exclusive self-transition — a thread re-accessing a variable it
// already owns, the steady state of thread-local data — touches nothing but
// the event counter, so it retires inline on a non-allocating table probe;
// everything else takes the full Event path (which also covers the probe
// misses: a Virgin slot falls through and is materialized there).
func (c *Checker) ObserveBatch(batch []trace.Event) {
	for i := range batch {
		e := batch[i]
		if e.Op == trace.OpRead || e.Op == trace.OpWrite {
			if s := c.vars.Probe(e.Target); s != nil && s.state == Exclusive && s.owner == e.Tid {
				c.events++
				continue
			}
		}
		c.Event(e)
	}
}

func (c *Checker) access(e trace.Event) {
	s := c.vars.At(e.Target)
	isWrite := e.Op == trace.OpWrite
	switch s.state {
	case Virgin:
		s.state = Exclusive
		s.owner = e.Tid
		return
	case Exclusive:
		if e.Tid == s.owner {
			return
		}
		// First access by a second thread: initialize the candidate set to
		// the locks held now, then fall through to refinement semantics.
		if isWrite {
			s.state = SharedModified
		} else {
			s.state = Shared
		}
		c.snapshotHeld(s, e.Tid)
	case Shared:
		if isWrite {
			s.state = SharedModified
		}
		c.refine(s, e)
	case SharedModified:
		c.refine(s, e)
	}
	if s.state == SharedModified && len(s.set) == 0 && !s.reported {
		s.reported = true
		c.warnings = append(c.warnings, Warning{Var: e.Target, Event: e})
		mWarnings.Inc() // cold: at most once per variable
	}
}

// snapshotHeld initializes s.set to the locks t currently holds, reusing
// s.set's storage. This replaces the old heldSet, which allocated a fresh
// map[uint64]bool on every Exclusive→Shared transition.
func (c *Checker) snapshotHeld(s *varState, t trace.TID) {
	held := c.locksOf(t)
	set := s.set[:0]
	for i, id := range held.ids {
		if held.ns[i] > 0 {
			set = append(set, id)
		}
	}
	s.set = set
}

// refine intersects s.set with the locks held at e, in place.
func (c *Checker) refine(s *varState, e trace.Event) {
	c.refines++
	held := c.locksOf(e.Tid)
	out := s.set[:0]
	for _, l := range s.set {
		if held.count(l) > 0 {
			out = append(out, l)
		}
	}
	s.set = out
}

// Warnings returns the per-variable warnings in detection order.
func (c *Checker) Warnings() []Warning { return c.warnings }

// WarnedVars returns the warned variable ids in ascending order.
func (c *Checker) WarnedVars() []uint64 {
	out := make([]uint64, 0, len(c.warnings))
	for _, w := range c.warnings {
		out = append(out, w.Var)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Events returns the number of events processed.
func (c *Checker) Events() int { return int(c.events) }

// Analyze runs a fresh checker over a complete trace.
func Analyze(tr *trace.Trace) *Checker {
	c := New()
	for _, e := range tr.Events {
		c.Event(e)
	}
	c.FlushMetrics()
	return c
}
