package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// Strategy decides where context switches happen and which thread runs
// next. The scheduler calls Preempt after every instrumented event of the
// running thread; when it returns true — or when the running thread blocks
// or terminates — the scheduler calls Pick to choose the next thread.
//
// Strategies are stateful and single-run; Run calls Reset before execution.
type Strategy interface {
	// Name identifies the strategy (recorded in trace metadata).
	Name() string
	// Seed returns the randomization seed, or 0 for deterministic strategies.
	Seed() int64
	// Reset restores initial state before a run.
	Reset()
	// Preempt reports whether to take the baton away after event e.
	Preempt(e trace.Event) bool
	// Pick chooses among the runnable thread ids, which arrive strictly
	// ascending (Guided records them as given). current is the last
	// thread that ran, or -1 at the start; it may or may not be in
	// runnable. Returning an id not in runnable aborts the run with
	// ErrReplayDiverged.
	Pick(runnable []trace.TID, current trace.TID) trace.TID
}

// SelectChooser is an optional Strategy extension: the runtime consults it
// whenever a select commits a case, passing the ready case indices in
// ascending order. Returning an index outside ready aborts the run with
// ErrReplayDiverged. Strategies that do not implement it commit the lowest
// ready index — deterministic, but blind to select nondeterminism; Random
// randomizes the choice, Guided records it as a choice point the explorers
// branch on, and Replay forces a recorded choice sequence.
type SelectChooser interface {
	Choose(ready []int) int
}

// Cooperative schedules context switches only at yield points (yields,
// waits, joins, thread boundaries) and otherwise lets the current thread
// run on. This is the paper's cooperative semantics: an execution under
// this strategy is yield-respecting by construction.
type Cooperative struct{}

// Name implements Strategy.
func (Cooperative) Name() string { return "cooperative" }

// Seed implements Strategy.
func (Cooperative) Seed() int64 { return 0 }

// Reset implements Strategy.
func (Cooperative) Reset() {}

// Preempt implements Strategy: switch only at yield points.
func (Cooperative) Preempt(e trace.Event) bool { return e.Op.IsYieldPoint() }

// Pick implements Strategy: keep running the current thread when possible,
// otherwise take the lowest runnable id (deterministic).
func (Cooperative) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	if containsTID(runnable, current) {
		return current
	}
	return runnable[0]
}

// RoundRobin preempts the running thread every Quantum events and rotates
// through runnable threads in id order. A quantum of 1 switches after every
// single operation — the most adversarial deterministic schedule.
type RoundRobin struct {
	// Quantum is the number of events a thread runs before being preempted.
	// Values below 1 are treated as 1.
	Quantum int

	sinceSwitch int
}

// Name implements Strategy.
func (s *RoundRobin) Name() string { return fmt.Sprintf("roundrobin(q=%d)", s.quantum()) }

// Seed implements Strategy.
func (s *RoundRobin) Seed() int64 { return 0 }

// Reset implements Strategy.
func (s *RoundRobin) Reset() { s.sinceSwitch = 0 }

func (s *RoundRobin) quantum() int {
	if s.Quantum < 1 {
		return 1
	}
	return s.Quantum
}

// Preempt implements Strategy.
func (s *RoundRobin) Preempt(e trace.Event) bool {
	s.sinceSwitch++
	if s.sinceSwitch >= s.quantum() {
		s.sinceSwitch = 0
		return true
	}
	return false
}

// Pick implements Strategy: the next runnable id after current, cyclically.
func (s *RoundRobin) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	for _, id := range runnable {
		if id > current {
			return id
		}
	}
	return runnable[0]
}

// Random is the seeded preemptive strategy used for violation hunting: at
// each event it preempts with probability P and picks uniformly among
// runnable threads. Distinct seeds explore distinct interleavings, and a
// given seed is fully reproducible.
type Random struct {
	// SeedVal seeds the generator.
	SeedVal int64
	// P is the per-event preemption probability; values outside (0,1]
	// default to 0.25.
	P float64

	rng *rand.Rand
}

// NewRandom returns a Random strategy with the default preemption
// probability.
func NewRandom(seed int64) *Random { return &Random{SeedVal: seed} }

// BatteryStrategies returns the standard schedule battery, fresh:
// cooperative, round-robin with quantum 1 and 5, then random schedules
// with seeds 1 through seeds.
func BatteryStrategies(seeds int) []Strategy {
	strategies := []Strategy{Cooperative{}, &RoundRobin{Quantum: 1}, &RoundRobin{Quantum: 5}}
	for s := 1; s <= seeds; s++ {
		strategies = append(strategies, NewRandom(int64(s)))
	}
	return strategies
}

// Name implements Strategy.
func (s *Random) Name() string { return fmt.Sprintf("random(p=%g)", s.prob()) }

// Seed implements Strategy.
func (s *Random) Seed() int64 { return s.SeedVal }

// Reset implements Strategy.
func (s *Random) Reset() { s.rng = rand.New(rand.NewSource(s.SeedVal)) }

func (s *Random) prob() float64 {
	if s.P <= 0 || s.P > 1 {
		return 0.25
	}
	return s.P
}

// Preempt implements Strategy.
func (s *Random) Preempt(e trace.Event) bool { return s.rng.Float64() < s.prob() }

// Pick implements Strategy.
func (s *Random) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	return runnable[s.rng.Intn(len(runnable))]
}

// Choose implements SelectChooser: uniform among the ready cases.
func (s *Random) Choose(ready []int) int {
	return ready[s.rng.Intn(len(ready))]
}

// PCT implements a simplified probabilistic concurrency testing scheduler
// (Burckhardt et al.): threads get random priorities, the highest-priority
// runnable thread always runs, and Depth-1 random change points demote the
// running thread, forcing rare orderings with provable probability bounds.
type PCT struct {
	// SeedVal seeds priority and change-point selection.
	SeedVal int64
	// Depth is the bug depth d; d-1 change points are used. Minimum 1.
	Depth int
	// ExpectedEvents scales change-point placement; defaults to 10000.
	ExpectedEvents int

	rng         *rand.Rand
	prio        map[trace.TID]int
	nextPrio    int
	changeAt    map[int]bool
	eventCount  int
	demoteFloor int
}

// Name implements Strategy.
func (s *PCT) Name() string { return fmt.Sprintf("pct(d=%d)", s.depth()) }

// Seed implements Strategy.
func (s *PCT) Seed() int64 { return s.SeedVal }

func (s *PCT) depth() int {
	if s.Depth < 1 {
		return 1
	}
	return s.Depth
}

// Reset implements Strategy.
func (s *PCT) Reset() {
	s.rng = rand.New(rand.NewSource(s.SeedVal))
	s.prio = make(map[trace.TID]int)
	s.nextPrio = 1 << 20
	s.changeAt = make(map[int]bool)
	s.eventCount = 0
	s.demoteFloor = 0
	n := s.ExpectedEvents
	if n <= 0 {
		n = 10000
	}
	for i := 0; i < s.depth()-1; i++ {
		s.changeAt[s.rng.Intn(n)] = true
	}
}

// Preempt implements Strategy: PCT needs a scheduling decision at every
// step because a higher-priority thread may have become runnable.
func (s *PCT) Preempt(e trace.Event) bool {
	s.eventCount++
	return true
}

// Pick implements Strategy: highest priority runnable; change points demote
// the current thread below every other priority.
func (s *PCT) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	for _, id := range runnable {
		if _, ok := s.prio[id]; !ok {
			// New threads get a random high priority below previously
			// assigned ones, as in PCT's initial priority assignment.
			s.prio[id] = s.nextPrio - s.rng.Intn(1024) - 1
			s.nextPrio = s.prio[id]
		}
	}
	if s.changeAt[s.eventCount] && current >= 0 {
		delete(s.changeAt, s.eventCount)
		s.demoteFloor--
		s.prio[current] = s.demoteFloor
	}
	best := runnable[0]
	for _, id := range runnable[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	return best
}

// Replay forces an exact previously observed schedule: the i-th event must
// be executed by Schedule[i]. Replaying a feasible schedule of a
// deterministic program reproduces its trace bit-for-bit.
type Replay struct {
	// Schedule is the per-event thread order, e.g. the Tid of each event
	// of a recorded Result.Trace.
	Schedule []trace.TID
	// Choices optionally forces the recorded select decisions
	// (Result.Choices) in commit order. Without it, replayed selects
	// commit the lowest ready index, which diverges when the original run
	// chose differently among simultaneously ready cases.
	Choices []int

	cursor    int
	choiceCur int
}

// NewReplay returns a Replay strategy over a recorded schedule.
func NewReplay(schedule []trace.TID) *Replay { return &Replay{Schedule: schedule} }

// NewReplayChoices returns a Replay strategy that also forces the recorded
// select decisions (use a recorded trace's thread ids and Result.Choices).
func NewReplayChoices(schedule []trace.TID, choices []int) *Replay {
	return &Replay{Schedule: schedule, Choices: choices}
}

// Name implements Strategy.
func (s *Replay) Name() string { return "replay" }

// Seed implements Strategy.
func (s *Replay) Seed() int64 { return 0 }

// Reset implements Strategy.
func (s *Replay) Reset() { s.cursor, s.choiceCur = 0, 0 }

// Preempt implements Strategy: reconsider after every event.
func (s *Replay) Preempt(e trace.Event) bool {
	s.cursor++
	return true
}

// Pick implements Strategy: the scheduled thread for the next event. If the
// schedule is exhausted, fall back to the lowest runnable id so a replayed
// prefix can be extended deterministically.
func (s *Replay) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	if s.cursor < len(s.Schedule) {
		return s.Schedule[s.cursor]
	}
	if containsTID(runnable, current) {
		return current
	}
	return runnable[0]
}

// Choose implements SelectChooser: the recorded decision while the
// sequence lasts (a recorded choice that is no longer ready aborts the run
// with ErrReplayDiverged), then the lowest ready index.
func (s *Replay) Choose(ready []int) int {
	if s.choiceCur < len(s.Choices) {
		c := s.Choices[s.choiceCur]
		s.choiceCur++
		return c
	}
	return ready[0]
}

// Guided follows a sequence of decision-point choices and then continues
// like Cooperative's deterministic policy, preferring to keep the current
// thread running. Unlike Replay (one decision per event), Guided makes one
// decision per *scheduling point*, which is what the exhaustive explorer
// enumerates.
//
// Preempt settles every forced decision itself, so it never reaches Pick:
// one that lies in the prefix when the prefix keeps the thread that just
// emitted, and one past the prefix when the run has no preemption left.
// Past its prefix Guided never preempts, so a run's spare preemptions stay
// what its prefix left; the explorers tell it whether none are left.
// Guided records a point for every decision its Pick or Choose takes past
// the prefix, and the run's path: the choice of every decision past the
// prefix, so the decisions before index d are Prefix followed by
// path[:d-len(Prefix)]. A zero-value Guided records every decision past
// its prefix.
type Guided struct {
	// Prefix holds forced choices for the first scheduling points.
	Prefix []trace.TID

	// spent reports that the run has no preemption left past its prefix,
	// so a decision there that follows an event keeps the emitting thread
	// and cannot branch. The explorers set it before each run; Reset keeps
	// it.
	spent bool

	cursor int
	events int
	// Points records (runnable set, choice) at every scheduling point its
	// Pick or Choose decides past the prefix. It, its Runnable sets and path
	// are valid until the next Reset, which reuses their arrays for the next
	// run.
	Points []ChoicePoint
	path   []trace.TID

	// arena backs the Runnable copies of this run's Points. Each copy is a
	// capacity-capped window of it, so appending to one point's Runnable
	// cannot overwrite the next, and the arena grows by plain append: the
	// windows cut before a growth keep the array they were cut from.
	arena []trace.TID
}

// record takes the decision at the cursor past the prefix: it appends cp
// to Points, with the arena's tail from i as its Runnable, and its choice
// to the path.
func (s *Guided) record(i int, cp ChoicePoint) {
	cp.Runnable = s.arena[i:len(s.arena):len(s.arena)]
	cp.decision = int32(s.cursor)
	s.cursor++
	s.Points = append(s.Points, cp)
	s.path = append(s.path, cp.Chosen)
}

// ChoicePoint is one scheduling decision: what was runnable and what ran.
// For select decisions (Select true) the "runnable" set holds the ready
// case *indices* and Current is -1, so the explorers' alternative
// expansion and preemption accounting apply unchanged (a select branch
// never costs a preemption).
type ChoicePoint struct {
	Runnable []trace.TID
	Chosen   trace.TID
	Current  trace.TID
	// EventIdx is the number of events already executed when the decision
	// was taken, i.e. the index of the next event. Several points may share
	// an EventIdx when picked threads block without emitting; the last one
	// scheduled the thread that produced the event. A decision Preempt
	// settles follows an event, so it is the first at its EventIdx, and a
	// later pick there supersedes it.
	EventIdx int
	// Select marks a select-case decision rather than a thread pick.
	Select bool
	// decision is the point's index in the run's decision sequence.
	decision int32
}

// Name implements Strategy.
func (s *Guided) Name() string { return "guided" }

// Seed implements Strategy.
func (s *Guided) Seed() int64 { return 0 }

// Reset implements Strategy. It truncates Points, the path and the arena
// and keeps their arrays for the next run, so a caller that needs a run's
// Points past the next Reset must copy them.
func (s *Guided) Reset() {
	s.cursor = 0
	s.events = 0
	s.Points, s.path, s.arena = s.Points[:0], s.path[:0], s.arena[:0]
}

// Preempt implements Strategy: every event is a scheduling point, and
// Preempt settles the decision after e in place when it is forced (see
// Guided), keeping e's thread running. An end event's decision is left to
// Pick: the runtime never parks a thread on its end.
func (s *Guided) Preempt(e trace.Event) bool {
	s.events++
	switch {
	case e.Op == trace.OpEnd:
		return true
	case s.cursor < len(s.Prefix):
		if s.Prefix[s.cursor] != e.Tid {
			return true
		}
	case !s.spent:
		return true
	default:
		s.path = append(s.path, e.Tid)
	}
	s.cursor++
	return false
}

// Pick implements Strategy. The recorded Runnable is a copy of runnable,
// which Strategy's contract delivers sorted ascending. Every pick past the
// prefix is recorded, even one with a single runnable thread: it may
// supersede an earlier point at its EventIdx.
func (s *Guided) Pick(runnable []trace.TID, current trace.TID) trace.TID {
	if s.cursor < len(s.Prefix) {
		s.cursor++
		return s.Prefix[s.cursor-1]
	}
	choice := runnable[0]
	if containsTID(runnable, current) {
		choice = current
	}
	i := len(s.arena)
	s.arena = append(s.arena, runnable...)
	s.record(i, ChoicePoint{Chosen: choice, Current: current, EventIdx: s.events})
	return choice
}

// Choose implements SelectChooser. Select decisions share the Prefix
// stream with Pick — each consumes one slot — so a forced prefix replays
// the identical decision sequence whether a slot lands on a thread pick or
// a select commit. Unforced selects take the lowest ready index
// (deterministic, mirroring Pick's current-then-lowest policy).
func (s *Guided) Choose(ready []int) int {
	if s.cursor < len(s.Prefix) {
		s.cursor++
		return int(s.Prefix[s.cursor-1])
	}
	i := len(s.arena)
	for _, r := range ready {
		s.arena = append(s.arena, trace.TID(r))
	}
	s.record(i, ChoicePoint{Chosen: trace.TID(ready[0]), Current: -1, EventIdx: s.events, Select: true})
	return ready[0]
}

// prefixAt returns the forced-decision prefix that repeats the run's
// decisions before decision dp, which lies past Prefix, and decides t
// there.
func (s *Guided) prefixAt(dp int, t trace.TID) []trace.TID {
	np := make([]trace.TID, dp+1)
	copy(np[copy(np, s.Prefix):], s.path)
	np[dp] = t
	return np
}
