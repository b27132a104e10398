// Package movers classifies instrumented events according to Lipton's
// theory of reduction (Lipton, CACM 1975), the substrate of the
// cooperability checker.
//
// A *right mover* commutes later past adjacent operations of other threads
// (lock acquires: once acquired, no other thread can touch the lock until
// the release). A *left mover* commutes earlier (lock releases). A *both
// mover* commutes either way (race-free accesses: no concurrent conflicting
// operation exists). A *non mover* commutes neither way (racy accesses,
// volatile accesses). A yield-delimited transaction is reducible — i.e.
// equivalent to executing serially — when it matches the pattern
// (right|both)* [non] (left|both)*.
//
// Fork and join are cooperative scheduling points by default: spawning a
// thread begins interference and joining one blocks, so cooperative
// semantics switches there, exactly like explicit yields and condition
// waits. A policy flag instead classifies fork as a left mover (it only
// conflicts with operations of the created thread, which cannot precede
// it, so it commutes earlier — release-like) and join as a right mover
// (acquire-like), the pure Lipton treatment.
package movers

import (
	"repro/internal/race"
	"repro/internal/trace"
)

// Mover is an event's commutativity class.
type Mover uint8

const (
	// None marks events with no mover relevance (method spans, atomic-spec
	// markers, notify under the guarding lock).
	None Mover = iota
	// Both commutes in either direction.
	Both
	// Right commutes later (pre-commit actions).
	Right
	// Left commutes earlier (post-commit actions).
	Left
	// Non commutes in neither direction (the commit action).
	Non
	// Boundary is not a mover: the event is a cooperative scheduling point
	// (yield, wait, thread begin/end, join) that delimits transactions.
	Boundary
)

// String names the mover class.
func (m Mover) String() string {
	switch m {
	case None:
		return "none"
	case Both:
		return "both"
	case Right:
		return "right"
	case Left:
		return "left"
	case Non:
		return "non"
	case Boundary:
		return "boundary"
	}
	return "invalid"
}

// Policy configures classification choices the paper leaves to the tool.
type Policy struct {
	// VolatileIsYield treats volatile accesses as yield points rather than
	// non-movers. Off by default: a volatile access is the commit action of
	// its transaction, which matches treating volatiles as the lone
	// permitted interference in lock-free code.
	VolatileIsYield bool
	// JoinIsBoundary treats join as a cooperative scheduling point (it
	// blocks). On in the defaults; turning it off classifies join as a
	// plain right mover, making post-commit joins violations.
	JoinIsBoundary bool
	// ForkIsBoundary treats fork as a cooperative scheduling point (the
	// spawned thread begins interfering). On in the defaults; turning it
	// off classifies fork as a left mover, which commits the enclosing
	// transaction instead of ending it.
	ForkIsBoundary bool
	// ChanIsBoundary treats blocking channel operations (send, recv,
	// select) as cooperative scheduling points — they can park the thread,
	// so cooperative semantics switches there, like wait and join. On in
	// the defaults. Turning it off applies the pure Lipton treatment:
	// buffered send is a left mover (release-like: it publishes and cannot
	// be overtaken by the matching receive), buffered receive a right
	// mover (acquire-like), and an unbuffered send/recv is a rendezvous
	// whose two halves pair into both movers under the two-phase
	// discipline — the channel is empty before and after, so adjacent
	// foreign operations on it commute across the pair. Close is a left
	// mover (broadcast release) and select remains a boundary either way:
	// its commit is a scheduling choice, not a commuting action.
	ChanIsBoundary bool
}

// DefaultPolicy matches the semantics described in DESIGN.md.
func DefaultPolicy() Policy {
	return Policy{JoinIsBoundary: true, ForkIsBoundary: true, ChanIsBoundary: true}
}

// Classify reports the mover class of a single operation kind under policy
// p, given externally supplied race knowledge: racy reports whether the
// operation's target may be involved in a data race (only consulted for
// plain accesses). It is the pure, state-free core of the taxonomy, shared
// by the dynamic Classifier below and by the static analyzer
// (internal/static), which supplies racy from a lockset-style guard
// analysis instead of a race detector.
func (p Policy) Classify(op trace.Op, racy bool) Mover {
	switch op {
	case trace.OpYield, trace.OpWait, trace.OpBegin, trace.OpEnd:
		return Boundary
	case trace.OpJoin:
		if p.JoinIsBoundary {
			return Boundary
		}
		return Right
	case trace.OpAcquire:
		return Right
	case trace.OpRelease:
		return Left
	case trace.OpFork:
		if p.ForkIsBoundary {
			return Boundary
		}
		return Left
	case trace.OpVolRead, trace.OpVolWrite:
		if p.VolatileIsYield {
			return Boundary
		}
		return Non
	case trace.OpRead, trace.OpWrite:
		if racy {
			return Non
		}
		return Both
	case trace.OpNotify:
		// Notify requires holding the guarding lock, so it cannot execute
		// concurrently with a conflicting monitor operation.
		return None
	case trace.OpSend, trace.OpRecv, trace.OpClose, trace.OpSelect:
		// Op-only entry point: without the event's Target the buffered/
		// unbuffered distinction is unknown, so this returns the
		// conservative class; ClassifyChan refines when the event is in
		// hand. Close never blocks — it is a left mover (broadcast
		// release) under either policy setting.
		if op == trace.OpClose {
			return Left
		}
		if op == trace.OpSelect || p.ChanIsBoundary {
			return Boundary
		}
		if op == trace.OpSend {
			return Left
		}
		return Right
	case trace.OpEnter, trace.OpExit, trace.OpAtomicBegin, trace.OpAtomicEnd:
		// Analysis markers.
		return None
	default:
		// Unknown op kinds are conservatively non-movers: an op added to
		// the vocabulary but not taught here must break reducibility
		// loudly rather than silently commute.
		return Non
	}
}

// ClassifyChan refines the channel-op classes with the buffering bit the
// event Target carries (trace.ChanUnbuffered). Under the Lipton treatment
// (ChanIsBoundary off) an unbuffered send or receive is one half of a
// rendezvous: the pair executes back-to-back logically, the channel is
// empty on both sides, and adjacent foreign channel operations commute
// across it — a both mover. Buffered halves keep their release/acquire
// asymmetry (send Left, recv Right).
func (p Policy) ClassifyChan(op trace.Op, unbuffered bool) Mover {
	if op == trace.OpClose {
		return Left
	}
	if op == trace.OpSelect || p.ChanIsBoundary {
		return Boundary
	}
	if unbuffered {
		return Both
	}
	if op == trace.OpSend {
		return Left
	}
	return Right
}

// Classifier assigns mover classes to a stream of events. Classification of
// plain accesses depends on race knowledge:
//
//   - In online mode (NewOnline) an embedded FastTrack detector runs along;
//     an access is a non-mover if its variable has raced so far. The first
//     access of the first racy pair is classified Both (the race is not yet
//     visible) — a deliberate under-approximation, repaired by two-pass mode.
//   - In two-pass mode (NewWithKnownRaces) the racy-variable set comes from
//     a prior full pass, so every access of a racy variable is a non-mover.
//
// Classify must be called exactly once per event, in trace order.
type Classifier struct {
	policy   Policy
	detector *race.Detector  // nil in two-pass mode
	racy     map[uint64]bool // known racy vars (two-pass), or nil
	// racyBits flattens the small-id prefix of racy to a dense bitset so
	// the per-access lookup on the two-pass hot path is a slice index, not
	// a map probe; ids past its length (sparse outliers) fall back to the
	// map. Variable ids are near-dense, so in practice every access hits
	// the bitset.
	racyBits []bool
	// onsets enables onset mode (NewWithRaceOnsets): var -> event index of
	// its first race, from a completed detector pass. An access is racy
	// iff its variable's onset <= its own index — bit-for-bit the
	// racy-knowledge the online mode's embedded detector would have had.
	// onsetIdx is the dense small-id prefix (-1 = never races).
	onsets   map[uint64]int
	onsetIdx []int32
}

// NewOnline returns a streaming classifier with an embedded race detector.
func NewOnline(policy Policy) *Classifier {
	return &Classifier{policy: policy, detector: race.New()}
}

// NewWithKnownRaces returns a two-pass classifier that uses a precomputed
// racy-variable set (e.g. race.RacyVarsOf of the same trace).
func NewWithKnownRaces(policy Policy, racy map[uint64]bool) *Classifier {
	if racy == nil {
		racy = map[uint64]bool{}
	}
	c := &Classifier{policy: policy, racy: racy}
	const maxBits = 1 << 16
	max := -1
	for v, on := range racy {
		if on && v < maxBits && int(v) > max {
			max = int(v)
		}
	}
	if max >= 0 {
		c.racyBits = make([]bool, max+1)
		for v, on := range racy {
			if on && v <= uint64(max) {
				c.racyBits[v] = true
			}
		}
	}
	return c
}

// NewWithRaceOnsets returns a classifier that replays online-mode racy
// knowledge from a completed race pass: onsets maps each racy variable to
// the event index of its first race (race.Detector.RaceOnsets). An access
// at index i is a non-mover iff its variable first raced at or before i,
// which is exactly when the online mode's embedded detector would have
// flagged it — so classification matches NewOnline without running a
// second detector.
func NewWithRaceOnsets(policy Policy, onsets map[uint64]int) *Classifier {
	if onsets == nil {
		onsets = map[uint64]int{}
	}
	c := &Classifier{policy: policy, onsets: onsets}
	const maxBits = 1 << 16
	max := -1
	for v := range onsets {
		if v < maxBits && int(v) > max {
			max = int(v)
		}
	}
	if max >= 0 {
		c.onsetIdx = make([]int32, max+1)
		for i := range c.onsetIdx {
			c.onsetIdx[i] = -1
		}
		for v, idx := range onsets {
			if v <= uint64(max) {
				c.onsetIdx[v] = int32(idx)
			}
		}
	}
	return c
}

// HintEvents presizes the embedded race detector (online mode) for a trace
// of n events; a no-op in two-pass mode. core.Checker forwards here the
// hint that core.Analyze gives it.
func (c *Classifier) HintEvents(n int) {
	if c.detector != nil {
		c.detector.HintEvents(n)
	}
}

// Detector exposes the embedded race detector in online mode (nil in
// two-pass mode); the harness reads its race reports after a run.
func (c *Classifier) Detector() *race.Detector { return c.detector }

// Classify consumes one event and returns its mover class.
func (c *Classifier) Classify(e trace.Event) Mover {
	if c.detector != nil {
		c.detector.Event(e)
	}
	if e.Op.IsChanOp() {
		// The event carries the buffering bit, so the refined channel
		// classification applies (unbuffered rendezvous halves pair into
		// both movers under the Lipton treatment).
		return c.policy.ClassifyChan(e.Op, trace.ChanUnbuffered(e.Target))
	}
	racy := false
	if e.Op == trace.OpRead || e.Op == trace.OpWrite {
		racy = c.isRacy(e)
	}
	return c.policy.Classify(e.Op, racy)
}

// AccessesAllBoth reports whether every plain read/write this classifier
// will ever see classifies as a both mover: the classifier is stateless (no
// embedded detector, so classification cannot change mid-stream) and its
// supplied race knowledge is empty. Batch consumers (atom, core) use this
// to skip classification entirely on the access hot path of race-free
// traces — the common case — since Policy.Classify(OpRead|OpWrite, false)
// is Both under every policy.
func (c *Classifier) AccessesAllBoth() bool {
	if c.detector != nil {
		return false
	}
	if c.onsets != nil {
		return len(c.onsets) == 0
	}
	for _, on := range c.racy {
		if on {
			return false
		}
	}
	return true
}

func (c *Classifier) isRacy(e trace.Event) bool {
	if c.onsets != nil {
		if e.Target < uint64(len(c.onsetIdx)) {
			o := c.onsetIdx[e.Target]
			return o >= 0 && int(o) <= e.Idx
		}
		if len(c.onsets) == 0 {
			// Race-free trace (the common case): no map probe per access.
			return false
		}
		o, ok := c.onsets[e.Target]
		return ok && o <= e.Idx
	}
	if c.racy != nil {
		if e.Target < uint64(len(c.racyBits)) {
			return c.racyBits[e.Target]
		}
		if len(c.racy) == 0 {
			return false
		}
		return c.racy[e.Target]
	}
	return c.detector.LastRaced() || c.detector.IsRacyVar(e.Target)
}
