// Package trace defines the instrumentation event model shared by every
// analysis in this module: the operation vocabulary (reads, writes, lock
// acquires/releases, fork/join, condition waits, yields, method spans), a
// compact Event record, an interned string table for source locations and
// entity names, and the Trace container with binary serialization.
//
// The event vocabulary deliberately mirrors what a RoadRunner-style bytecode
// instrumentor emits for Java programs, since the paper's dynamic analysis
// was built on that framework; here the events are produced by the virtual
// runtime in internal/sched instead.
package trace

import (
	"fmt"
	"slices"
	"sort"
)

// TID identifies a virtual thread. Thread 0 is the initial (main) thread;
// children get consecutive ids in fork order, so TIDs are dense and usable
// as vector-clock indices.
type TID int32

// Op enumerates instrumented operation kinds.
type Op uint8

const (
	// OpBegin marks the first event of a thread (after its fork).
	OpBegin Op = iota
	// OpEnd marks the last event of a thread.
	OpEnd
	// OpRead is a shared-variable read; Target is the VarID.
	OpRead
	// OpWrite is a shared-variable write; Target is the VarID.
	OpWrite
	// OpAcquire is a lock acquisition; Target is the LockID.
	OpAcquire
	// OpRelease is a lock release; Target is the LockID.
	OpRelease
	// OpFork creates a thread; Target is the child TID.
	OpFork
	// OpJoin awaits a thread's termination; Target is the child TID.
	OpJoin
	// OpYield is an explicit cooperative yield annotation.
	OpYield
	// OpWait is a condition-variable wait; Target is the guarding LockID.
	// Semantically it releases the lock, blocks, and reacquires; it is a
	// yielding operation under cooperative semantics.
	OpWait
	// OpNotify wakes waiter(s) on a condition; Target is the guarding LockID.
	OpNotify
	// OpVolRead is a volatile (synchronization-typed) read; Target is VarID.
	OpVolRead
	// OpVolWrite is a volatile write; Target is VarID.
	OpVolWrite
	// OpEnter marks a method/function entry; Target is the MethodID.
	OpEnter
	// OpExit marks a method/function exit; Target is the MethodID.
	OpExit
	// OpAtomicBegin opens a programmer-specified atomic block (used by the
	// atomicity-checker baseline, not by cooperability).
	OpAtomicBegin
	// OpAtomicEnd closes an atomic block.
	OpAtomicEnd
	// OpSend is a channel send; Target encodes the ChanID (see ChanTarget).
	// Sending publishes the sender's prior work to the receiver, so it is
	// release-like; on an unbuffered channel it is also a rendezvous.
	OpSend
	// OpRecv is a channel receive; Target encodes the ChanID. Receiving
	// observes the matching send's prior work, so it is acquire-like.
	OpRecv
	// OpClose closes a channel; Target encodes the ChanID. Close is a
	// broadcast release: every subsequent receive observes it.
	OpClose
	// OpSelect records a committed select decision; Target encodes the
	// ChanID of the chosen case (or ChanNone when the default case fired).
	// The committed communication follows as its own OpSend/OpRecv event;
	// OpSelect itself marks the nondeterministic choice point.
	OpSelect

	numOps = iota
)

var opNames = [numOps]string{
	OpBegin:       "begin",
	OpEnd:         "end",
	OpRead:        "rd",
	OpWrite:       "wr",
	OpAcquire:     "acq",
	OpRelease:     "rel",
	OpFork:        "fork",
	OpJoin:        "join",
	OpYield:       "yield",
	OpWait:        "wait",
	OpNotify:      "notify",
	OpVolRead:     "vrd",
	OpVolWrite:    "vwr",
	OpEnter:       "enter",
	OpExit:        "exit",
	OpAtomicBegin: "abegin",
	OpAtomicEnd:   "aend",
	OpSend:        "send",
	OpRecv:        "recv",
	OpClose:       "close",
	OpSelect:      "select",
}

// String returns the short mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation kind.
func (o Op) Valid() bool { return int(o) < numOps }

// IsAccess reports whether o reads or writes a plain shared variable.
func (o Op) IsAccess() bool { return o == OpRead || o == OpWrite }

// IsVolatile reports whether o is a volatile access.
func (o Op) IsVolatile() bool { return o == OpVolRead || o == OpVolWrite }

// IsWrite reports whether o writes a variable (plain or volatile).
func (o Op) IsWrite() bool { return o == OpWrite || o == OpVolWrite }

// IsLockOp reports whether o manipulates a lock directly.
func (o Op) IsLockOp() bool { return o == OpAcquire || o == OpRelease }

// IsChanOp reports whether o operates on a channel.
func (o Op) IsChanOp() bool {
	return o == OpSend || o == OpRecv || o == OpClose || o == OpSelect
}

// IsYieldPoint reports whether o is a point where cooperative semantics
// permits a context switch: explicit yields, condition waits (which block),
// thread boundaries, joins (which block), and blocking channel operations
// (send/recv may block; select commits a scheduling choice). Close never
// blocks and is not a yield point.
func (o Op) IsYieldPoint() bool {
	switch o {
	case OpYield, OpWait, OpBegin, OpEnd, OpJoin, OpSend, OpRecv, OpSelect:
		return true
	}
	return false
}

// Channel targets. Channel events carry a composite Target: the low bits
// are the dense ChanID and bit chanUnbufBit records whether the channel is
// unbuffered (capacity 0), so offline analyses (mover classification in
// particular) can distinguish rendezvous communication without re-running
// the program. ChanNone marks a select that committed its default case.
const (
	chanUnbufBit = uint64(1) << 62
	// ChanNone is the OpSelect Target when the default case fired (no
	// channel was touched).
	ChanNone = ^uint64(0) &^ chanUnbufBit
)

// ChanTarget packs a channel id and its unbuffered-ness into an event Target.
func ChanTarget(id uint64, unbuffered bool) uint64 {
	if unbuffered {
		return id | chanUnbufBit
	}
	return id
}

// ChanID extracts the dense channel id from a channel event Target.
func ChanID(target uint64) uint64 { return target &^ chanUnbufBit }

// ChanUnbuffered reports whether a channel event Target names an
// unbuffered channel.
func ChanUnbuffered(target uint64) bool { return target&chanUnbufBit != 0 }

// LocID indexes the trace's string table; it names a source location.
// LocID 0 is always the empty/unknown location.
type LocID int32

// SymID indexes the trace's string table for entity names (variables, locks,
// methods). SymID 0 is always the empty name.
type SymID = LocID

// Event is one instrumented operation. Events are small value types; traces
// of millions of events are routine.
type Event struct {
	Idx    int    // position in the trace's total order
	Tid    TID    // executing thread
	Op     Op     // operation kind
	Target uint64 // VarID, LockID, MethodID, or child TID depending on Op
	Loc    LocID  // source location of the operation
}

// Strings is an append-only interner mapping names to dense ids. Id 0 is
// reserved for the empty string.
type Strings struct {
	// byName indexes names[:indexed]. Intern creates it and brings it up
	// to date first, so a table filled through AppendNew hashes its names
	// only if something interns into it.
	byName  map[string]LocID
	indexed int
	names   []string
}

// NewStrings returns an interner with only the empty string registered.
func NewStrings() *Strings {
	return &Strings{names: []string{""}}
}

// Intern returns the id for name, registering it if new.
func (s *Strings) Intern(name string) LocID {
	if s.indexed < len(s.names) {
		s.index()
	}
	if id, ok := s.byName[name]; ok {
		return id
	}
	s.names = append(s.names, name)
	id := LocID(len(s.names) - 1)
	s.byName[name] = id
	s.indexed++
	return id
}

// AppendNew registers name, which s does not hold, without hashing it,
// and returns its id; a later Intern indexes it. The virtual runtime, the
// only writer of its runs' tables while they run and which knows which
// names each run has appended, fills them this way.
func (s *Strings) AppendNew(name string) LocID {
	s.names = append(s.names, name)
	return LocID(len(s.names) - 1)
}

// Grow ensures capacity for at least n further names, like Trace.Grow;
// n <= 0 is a no-op.
func (s *Strings) Grow(n int) {
	if n > 0 {
		s.names = slices.Grow(s.names, n)
	}
}

// index adds the names registered by AppendNew to byName.
func (s *Strings) index() {
	if s.byName == nil {
		s.byName = make(map[string]LocID, len(s.names))
	}
	for ; s.indexed < len(s.names); s.indexed++ {
		s.byName[s.names[s.indexed]] = LocID(s.indexed)
	}
}

// Name returns the string for id, or "" for out-of-range ids.
func (s *Strings) Name(id LocID) string {
	if s == nil || id < 0 || int(id) >= len(s.names) {
		return ""
	}
	return s.names[id]
}

// Len returns the number of interned strings (including the empty string).
func (s *Strings) Len() int { return len(s.names) }

// All returns the interned strings in id order. The caller must not mutate
// the returned slice.
func (s *Strings) All() []string { return s.names }

// Trace is a recorded execution: a totally ordered event sequence plus the
// string table its LocIDs refer into and execution metadata.
type Trace struct {
	// Meta describes how the trace was produced.
	Meta Meta
	// Events is the total order of instrumented operations.
	Events []Event
	// Strings resolves LocID/SymID values in Events.
	Strings *Strings
}

// Meta records the provenance of a trace.
type Meta struct {
	Workload string // workload registry name, if any
	Strategy string // scheduler strategy description
	Seed     int64  // scheduler seed, if randomized
	Threads  int    // number of threads that ran
}

// New returns an empty trace with a fresh string table.
func New() *Trace {
	return &Trace{Strings: NewStrings()}
}

// Append adds an event, assigning its Idx, and returns its index.
func (t *Trace) Append(e Event) int {
	e.Idx = len(t.Events)
	t.Events = append(t.Events, e)
	return e.Idx
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Grow ensures capacity for at least n further events, like the standard
// library's slices.Grow; n <= 0 is a no-op.
func (t *Trace) Grow(n int) {
	if need := len(t.Events) + n; need > cap(t.Events) {
		grown := make([]Event, len(t.Events), need)
		copy(grown, t.Events)
		t.Events = grown
	}
}

// Threads returns the number of distinct thread ids (max tid + 1).
func (t *Trace) Threads() int {
	max := TID(-1)
	for i := range t.Events {
		if t.Events[i].Tid > max {
			max = t.Events[i].Tid
		}
	}
	return int(max) + 1
}

// ByThread splits the trace into per-thread subsequences preserving program
// order. The inner slices alias the trace's events.
func (t *Trace) ByThread() map[TID][]Event {
	m := make(map[TID][]Event)
	for _, e := range t.Events {
		m[e.Tid] = append(m[e.Tid], e)
	}
	return m
}

// Vars returns the distinct plain-variable targets accessed in the trace,
// in ascending order.
func (t *Trace) Vars() []uint64 {
	return t.targets(func(o Op) bool { return o.IsAccess() || o.IsVolatile() })
}

// Locks returns the distinct lock targets in the trace, ascending.
func (t *Trace) Locks() []uint64 { return t.targets(Op.IsLockOp) }

func (t *Trace) targets(pred func(Op) bool) []uint64 {
	set := make(map[uint64]struct{})
	for i := range t.Events {
		if pred(t.Events[i].Op) {
			set[t.Events[i].Target] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CountOp returns the number of events with operation o.
func (t *Trace) CountOp(o Op) int {
	n := 0
	for i := range t.Events {
		if t.Events[i].Op == o {
			n++
		}
	}
	return n
}

// Format renders an event for humans, resolving names via the trace's
// string table when available.
func (t *Trace) Format(e Event) string {
	loc := ""
	if t != nil && t.Strings != nil {
		if s := t.Strings.Name(e.Loc); s != "" {
			loc = " @" + s
		}
	}
	switch e.Op {
	case OpFork, OpJoin:
		return fmt.Sprintf("#%d T%d %s(T%d)%s", e.Idx, e.Tid, e.Op, e.Target, loc)
	case OpBegin, OpEnd, OpYield:
		return fmt.Sprintf("#%d T%d %s%s", e.Idx, e.Tid, e.Op, loc)
	case OpSend, OpRecv, OpClose, OpSelect:
		if e.Op == OpSelect && e.Target == ChanNone {
			return fmt.Sprintf("#%d T%d select(default)%s", e.Idx, e.Tid, loc)
		}
		mark := ""
		if ChanUnbuffered(e.Target) {
			mark = "!"
		}
		return fmt.Sprintf("#%d T%d %s(c%d%s)%s", e.Idx, e.Tid, e.Op, ChanID(e.Target), mark, loc)
	default:
		return fmt.Sprintf("#%d T%d %s(%d)%s", e.Idx, e.Tid, e.Op, e.Target, loc)
	}
}

// Validate performs structural sanity checks: indexes are consecutive,
// every thread has exactly one begin before its other events and at most one
// end as its last event, releases match acquires per thread, and op codes
// are defined. It returns the first problem found.
func (t *Trace) Validate() error {
	type tstate struct {
		begun, ended bool
		held         map[uint64]int
	}
	states := make(map[TID]*tstate)
	st := func(id TID) *tstate {
		s := states[id]
		if s == nil {
			s = &tstate{held: make(map[uint64]int)}
			states[id] = s
		}
		return s
	}
	for i, e := range t.Events {
		if e.Idx != i {
			return fmt.Errorf("event %d has Idx %d", i, e.Idx)
		}
		if !e.Op.Valid() {
			return fmt.Errorf("event %d has invalid op %d", i, uint8(e.Op))
		}
		s := st(e.Tid)
		if s.ended {
			return fmt.Errorf("event %d: thread %d acts after end", i, e.Tid)
		}
		switch e.Op {
		case OpBegin:
			if s.begun {
				return fmt.Errorf("event %d: duplicate begin for thread %d", i, e.Tid)
			}
			s.begun = true
			continue
		case OpEnd:
			if !s.begun {
				return fmt.Errorf("event %d: end before begin for thread %d", i, e.Tid)
			}
			s.ended = true
			continue
		}
		if !s.begun {
			return fmt.Errorf("event %d: thread %d acts before begin", i, e.Tid)
		}
		switch e.Op {
		case OpAcquire:
			s.held[e.Target]++
		case OpRelease:
			if s.held[e.Target] == 0 {
				return fmt.Errorf("event %d: thread %d releases unheld lock %d", i, e.Tid, e.Target)
			}
			s.held[e.Target]--
		case OpWait:
			if s.held[e.Target] == 0 {
				return fmt.Errorf("event %d: thread %d waits without holding lock %d", i, e.Tid, e.Target)
			}
		}
	}
	return nil
}
