package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Options configures one run of a Program.
type Options struct {
	// Strategy decides where context switches happen. Required. Strategies
	// are stateful; a fresh run calls Reset and then owns the value, so do
	// not share one Strategy across concurrent runs.
	Strategy Strategy
	// Observers receive every event, in trace order, as contiguous batches
	// (see Observer).
	Observers []Observer
	// RecordTrace retains the full event sequence in Result.Trace.
	RecordTrace bool
	// MaxEvents aborts runaway executions; 0 means the default (5M).
	MaxEvents int
	// EventsHint presizes the schedule and trace buffers for runs whose
	// approximate event count is known up front (e.g. re-running one
	// workload under many schedules). Purely an allocation hint; 0 means
	// grow from empty.
	EventsHint int
	// DisableLocations skips source-location capture (faster; used by the
	// overhead experiments' baseline configurations).
	DisableLocations bool
	// Ctx, when non-nil, cancels the run cooperatively: the runtime checks
	// it every 1024 events and aborts with an error wrapping ErrCancelled,
	// unwinding every virtual thread so no goroutine leaks. nil (the
	// default) keeps the per-event hot path free of context checks.
	Ctx context.Context
	// BatchSize is the observers' event-batch buffer size; 0 means
	// DefaultBatchSize (4096). Batching changes *when* an observer sees
	// events (at flush points: buffer full, or run end — including aborted
	// runs), never which events or their order, so analyses observe the
	// identical sequence at any size.
	BatchSize int
}

// StringsAware is implemented by observers that want to resolve LocIDs;
// the runtime hands them the run's string table before execution starts.
type StringsAware interface {
	SetStrings(s *trace.Strings)
}

// EventsHinted is implemented by observers that can presize their internal
// state for an expected event count; the runtime forwards
// Options.EventsHint before execution starts, so analysis state grows once
// instead of rehashing/reallocating throughout the run.
type EventsHinted interface {
	HintEvents(n int)
}

// Symbols maps the dense ids appearing in trace Targets back to the names
// declared when the Program was built.
type Symbols struct {
	Vars      []string // plain variable id -> name
	Volatiles []string // volatile id (minus volatileBase) -> name
	Mutexes   []string // lock id -> name
	Methods   []string // method id -> name
	Threads   []string // tid -> name
	Chans     []string // channel id -> name
}

// VarName resolves a plain or volatile access target.
func (s *Symbols) VarName(target uint64) string {
	if s == nil {
		return fmt.Sprintf("var#%d", target)
	}
	if target >= volatileBase {
		i := target - volatileBase
		if i < uint64(len(s.Volatiles)) {
			return s.Volatiles[i]
		}
	} else if target < uint64(len(s.Vars)) {
		return s.Vars[target]
	}
	return fmt.Sprintf("var#%d", target)
}

// MutexName resolves a lock target.
func (s *Symbols) MutexName(target uint64) string {
	if s != nil && target < uint64(len(s.Mutexes)) {
		return s.Mutexes[target]
	}
	return fmt.Sprintf("lock#%d", target)
}

// MethodName resolves a method target.
func (s *Symbols) MethodName(target uint64) string {
	if s != nil && target < uint64(len(s.Methods)) {
		return s.Methods[target]
	}
	return fmt.Sprintf("method#%d", target)
}

// ChanName resolves a channel event target (the composite encoding of
// trace.ChanTarget).
func (s *Symbols) ChanName(target uint64) string {
	id := trace.ChanID(target)
	if s != nil && id < uint64(len(s.Chans)) {
		return s.Chans[id]
	}
	return fmt.Sprintf("chan#%d", id)
}

// TargetName resolves an event's target according to its op kind.
func (s *Symbols) TargetName(e trace.Event) string {
	switch e.Op {
	case trace.OpRead, trace.OpWrite, trace.OpVolRead, trace.OpVolWrite:
		return s.VarName(e.Target)
	case trace.OpAcquire, trace.OpRelease, trace.OpWait, trace.OpNotify:
		return s.MutexName(e.Target)
	case trace.OpEnter, trace.OpExit:
		return s.MethodName(e.Target)
	case trace.OpFork, trace.OpJoin:
		return fmt.Sprintf("T%d", e.Target)
	case trace.OpSend, trace.OpRecv, trace.OpClose:
		return s.ChanName(e.Target)
	case trace.OpSelect:
		if e.Target == trace.ChanNone {
			return "default"
		}
		return s.ChanName(e.Target)
	}
	return ""
}

// Result summarizes one run.
type Result struct {
	// Trace is the recorded execution, or nil if RecordTrace was false.
	Trace *trace.Trace
	// Events is the total number of instrumented events.
	Events int
	// Threads is the number of virtual threads that existed.
	Threads int
	// Strings is the run's string table (locations).
	Strings *trace.Strings
	// Symbols resolves trace targets to declared names.
	Symbols *Symbols
	// FinalVars holds the final value of every plain variable.
	FinalVars []int64
	// FinalVolatiles holds the final value of every volatile variable.
	FinalVolatiles []int64
	// Schedule is the tid of each event in execution order; feeding it to
	// NewReplay reproduces this run exactly.
	Schedule []trace.TID
	// Choices is the committed case index of every select decision, in
	// commit order. Replaying requires both Schedule and Choices when the
	// program selects among simultaneously ready cases (see Replay.Choices).
	Choices []int
	// Stats is the run's scheduling telemetry (also flushed to the obs
	// registry).
	Stats SchedStats
}

// SchedStats is one run's scheduling and fast-path telemetry.
type SchedStats struct {
	// Switches counts context switches (a different thread was picked).
	Switches int
	// Preemptions counts switches away from a still-runnable thread.
	Preemptions int
	// DirectHandoffs counts switches performed as one-hop thread→thread
	// wakes, bypassing the scheduler goroutine.
	DirectHandoffs int
	// ElidedParks counts scheduling points at which the strategy was
	// consulted but the running thread kept the baton with zero channel
	// operations.
	ElidedParks int
	// LocCacheHits counts location captures answered by the PC cache;
	// LocCacheMisses counts captures of a PC new to the cache, which an
	// exploration keeps across its runs, so a replay misses only on PCs
	// that no earlier replay of the search captured.
	LocCacheHits   int
	LocCacheMisses int

	// Phase attribution: the run's wall clock split into generation (the
	// virtual threads executing workload code), handoff (baton transfer
	// between threads), and analysis (observer batch flushes).
	// Measured only while the flight recorder is enabled — all four fields
	// are zero otherwise, so undisturbed runs pay nothing for them.
	// Generation is the remainder (total − handoff − analysis), clamped at
	// zero; handoff intervals are true wall clock, timed from the yielding
	// goroutine's send to the resumed goroutine's receive.
	PhaseGenNs      int64
	PhaseHandoffNs  int64
	PhaseAnalysisNs int64
	PhaseTotalNs    int64
}

// ErrDeadlock wraps scheduler deadlock reports.
var ErrDeadlock = errors.New("sched: deadlock")

// ErrReplayDiverged reports that a replay strategy forced a thread that was
// not runnable, i.e. the schedule does not fit the program.
var ErrReplayDiverged = errors.New("sched: replay diverged from feasible schedule")

type threadState uint8

const (
	stateRunnable threadState = iota
	stateBlocked
	stateDone
)

type waitKind uint8

const (
	waitNone waitKind = iota
	waitLock
	waitCond
	waitJoin
	waitChanSend
	waitChanRecv
	waitChanSelect
	waitGroup
)

type thread struct {
	id     trace.TID
	name   string
	proc   Proc
	handle T // the thread's op handle, passed to proc
	// resume carries the baton to this thread. Every send on it is matched
	// within a run, so a recycled record keeps its channel.
	resume   chan struct{}
	state    threadState
	waitOn   waitKind
	waitID   uint64
	signaled bool // condition notify received
	// selWatch holds the channel ids a select blocked in waitChanSelect is
	// watching; any state change on one of them wakes the thread to
	// re-evaluate readiness. Cleared when the select commits.
	selWatch []uint64
	// locOverride, when >= 0, replaces PC-based location capture for every
	// op this thread emits (T.At). Translated programs (internal/cooptrans)
	// use it to attribute events to the original source's coordinates
	// instead of the interpreter's call sites.
	locOverride trace.LocID
}

type mutexState struct {
	owner trace.TID // -1 when free
	depth int
}

type condState struct {
	queue []trace.TID // FIFO wait queue
}

var errKilled = errors.New("sched: thread killed")

// Runtime is the mutable state of a run. Exactly one virtual thread (or
// the scheduler loop) executes at any moment, handing off control through
// channels, so Runtime fields need no further locking.
//
// An exploration runs all its replays on one Runtime, and Run makes a
// fresh one for its single run. Each run starts from reset, which keeps
// the buffers no Result refers to (thread records, lock, condition and
// channel state, the observer batch, the location cache, the scheduling
// scratch) and allocates afresh everything a Result holds (trace, string
// table, symbols, final values, schedule, choices), so a Result stays
// intact however many runs follow it.
type Runtime struct {
	prog  *Program
	opts  Options
	strat Strategy
	pool  *threadPool // runs the virtual threads' goroutines

	// threads holds the run's thread records, indexed by id. Records past
	// len, from earlier runs, are recycled by spawn.
	threads []*thread
	current trace.TID

	vals    []int64
	volVals []int64
	mus     []mutexState
	conds   []condState
	chs     []chanState

	strings   *trace.Strings
	tr        *trace.Trace
	observers []Observer
	// batch holds the pending events not yet flushed to observers; it is
	// nil when the run has none. batchBuf keeps its array across runs.
	batch    []trace.Event
	batchBuf []trace.Event
	symbols  *Symbols
	schedule []trace.TID

	methodIDs map[string]uint64

	toSched chan struct{}
	killed  bool
	err     error

	events    int
	maxEvents int

	// Scheduling telemetry, counted in plain fields (one virtual thread
	// runs at a time) and flushed to the obs registry when the run ends.
	yields      int // OpYield events
	switches    int // context switches (scheduler picked a different thread)
	preemptions int // switches away from a still-runnable thread

	// Channel telemetry (runtime.chan.* counters).
	chanSends   int
	chanRecvs   int
	chanCloses  int
	chanSelects int

	// choices records the committed case index of every select that chose
	// among ready cases, in commit order (Result.Choices; Replay consumes
	// them to reproduce select nondeterminism).
	choices []int

	// Fast-path telemetry (see handoff): switches that bypassed the
	// scheduler goroutine, and scheduling points resolved in place with no
	// parking at all.
	directHandoffs int
	elidedParks    int

	// Phase attribution (flight recorder enabled only; see SchedStats).
	// handoffT0 is the baton-carried handshake: the yielding goroutine
	// stamps it immediately before the resume-channel send and the resumed
	// goroutine reads it after the receive — the channel gives the
	// happens-before edge — so each measured interval is true wall-clock
	// handoff time, never double-counted across threads. killAll clears
	// phaseOn first so teardown wakes are not misattributed.
	phaseOn         bool
	runT0           time.Time
	handoffT0       time.Time
	phaseHandoffNs  int64
	phaseAnalysisNs int64
	phaseGenNs      int64
	phaseTotalNs    int64

	// runnableBuf backs runnableIDs across scheduling decisions. Exactly
	// one goroutine holds the baton at a time, so reuse is safe; Strategy
	// implementations that retain the runnable set must copy it (Guided
	// does).
	runnableBuf []trace.TID

	// noLoc mirrors opts.DisableLocations as a direct field so sitePC's
	// guard is a single load, keeping it within the inlining budget.
	noLoc bool

	locs locCache
}

// Run executes p under the given options and returns the run summary.
// It is deterministic for a fixed program, strategy, and seed.
func Run(p *Program, opts Options) (*Result, error) {
	rt := newRuntime()
	res, err := rt.run(p, opts)
	rt.close()
	return res, err
}

// newRuntime returns a Runtime with its own thread pool, for one or more
// runs; close releases it once the last run has returned.
func newRuntime() *Runtime {
	return &Runtime{pool: newThreadPool(), toSched: make(chan struct{}), methodIDs: make(map[string]uint64)}
}

// close stops the runtime's pooled goroutines.
func (rt *Runtime) close() { rt.pool.close() }

// reset readies rt for a run of p: every field is zeroed except the
// buffers kept across runs, which are emptied.
func (rt *Runtime) reset(p *Program, opts Options) {
	*rt = Runtime{
		prog:        p,
		opts:        opts,
		strat:       opts.Strategy,
		pool:        rt.pool,
		threads:     rt.threads[:0],
		current:     -1,
		mus:         resized(rt.mus, len(p.mutexes)),
		conds:       resized(rt.conds, len(p.conds)),
		chs:         resized(rt.chs, len(p.chans)),
		observers:   opts.Observers,
		batchBuf:    rt.batchBuf,
		methodIDs:   rt.methodIDs,
		toSched:     rt.toSched,
		maxEvents:   opts.MaxEvents,
		runnableBuf: rt.runnableBuf,
		noLoc:       opts.DisableLocations,
		locs:        rt.locs,
	}
	clear(rt.methodIDs)
	rt.locs.nextRun()
	for i := range rt.mus {
		rt.mus[i] = mutexState{owner: -1}
	}
	for i := range rt.conds {
		rt.conds[i].queue = rt.conds[i].queue[:0]
	}
	for i := range rt.chs {
		ch := &rt.chs[i]
		*ch = chanState{cap: p.chans[i].cap, buf: ch.buf[:0], pending: ch.pending[:0]}
	}
	if len(opts.Observers) > 0 {
		size := opts.BatchSize
		if size <= 0 {
			size = DefaultBatchSize
		}
		if cap(rt.batchBuf) != size {
			rt.batchBuf = make([]trace.Event, 0, size)
		}
		rt.batch = rt.batchBuf[:0]
	}
	if rt.maxEvents <= 0 {
		rt.maxEvents = 5_000_000
	}
}

// resized returns s at length n, reusing its array when it is large
// enough; the caller resets the elements.
func resized[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// run executes p on rt and returns the run summary.
func (rt *Runtime) run(p *Program, opts Options) (*Result, error) {
	if p.main == nil {
		return nil, errors.New("sched: program has no main")
	}
	if opts.Strategy == nil {
		return nil, errors.New("sched: options require a Strategy")
	}
	methods := len(rt.methodIDs)
	rt.reset(p, opts)
	// The buffers a Result keeps are allocated afresh, presized from what
	// earlier runs on rt used.
	rt.strings = trace.NewStrings()
	rt.strings.Grow(len(rt.locs.names))
	// Declared initial values are pre-run state, not events: nothing is
	// emitted for them (translated package-level initializers rely on this).
	rt.vals = make([]int64, len(p.vars))
	for i := range rt.vals {
		rt.vals[i] = p.vars[i].init
	}
	rt.volVals = make([]int64, len(p.volatiles))
	for i := range rt.volVals {
		rt.volVals[i] = p.volatiles[i].init
	}
	rt.symbols = &Symbols{
		Vars:      names(p.vars),
		Volatiles: names(p.volatiles),
		Mutexes:   names(p.mutexes),
		Methods:   make([]string, 0, methods),
		Threads:   make([]string, 0, cap(rt.threads)),
		Chans:     chanNames(p.chans),
	}
	if opts.EventsHint > 0 {
		rt.schedule = make([]trace.TID, 0, opts.EventsHint)
	}
	if opts.RecordTrace {
		rt.tr = &trace.Trace{Strings: rt.strings}
		rt.tr.Meta.Workload = p.name
		rt.tr.Meta.Strategy = opts.Strategy.Name()
		rt.tr.Meta.Seed = opts.Strategy.Seed()
		rt.tr.Grow(opts.EventsHint)
	}
	// Observers get the string table and the presize hint before the first
	// batch, so they grow their state once.
	for _, o := range opts.Observers {
		if sa, ok := o.(StringsAware); ok {
			sa.SetStrings(rt.strings)
		}
		if eh, ok := o.(EventsHinted); ok && opts.EventsHint > 0 {
			eh.HintEvents(opts.EventsHint)
		}
	}
	rt.strat.Reset()
	if flight.Enabled() {
		rt.phaseOn = true
		rt.runT0 = time.Now()
	}

	rt.spawn("main", p.main)
	err := rt.loop()
	// Deliver the pending partial batch whatever way the run ended, so
	// observers see every emitted event — on an aborted run, everything up
	// to the failure point. This flush runs on the scheduler goroutine
	// (threads are parked or dead), so observer panics are caught here
	// rather than by a thread's recover.
	if ferr := rt.flushBatchFinal(); ferr != nil && err == nil {
		err = ferr
	}
	if !rt.runT0.IsZero() {
		rt.phaseTotalNs = time.Since(rt.runT0).Nanoseconds()
		rt.phaseGenNs = rt.phaseTotalNs - rt.phaseHandoffNs - rt.phaseAnalysisNs
		if rt.phaseGenNs < 0 {
			rt.phaseGenNs = 0
		}
	}
	rt.flushMetrics()

	res := &Result{
		Trace:          rt.tr,
		Events:         rt.events,
		Threads:        len(rt.threads),
		Strings:        rt.strings,
		Symbols:        rt.symbols,
		FinalVars:      rt.vals,
		FinalVolatiles: rt.volVals,
		Schedule:       rt.schedule,
		Choices:        rt.choices,
		Stats: SchedStats{
			Switches:        rt.switches,
			Preemptions:     rt.preemptions,
			DirectHandoffs:  rt.directHandoffs,
			ElidedParks:     rt.elidedParks,
			LocCacheHits:    rt.locs.hits,
			LocCacheMisses:  rt.locs.miss,
			PhaseGenNs:      rt.phaseGenNs,
			PhaseHandoffNs:  rt.phaseHandoffNs,
			PhaseAnalysisNs: rt.phaseAnalysisNs,
			PhaseTotalNs:    rt.phaseTotalNs,
		},
	}
	if rt.tr != nil {
		rt.tr.Meta.Threads = len(rt.threads)
	}
	return res, err
}

func names(defs []objDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func chanNames(defs []chanDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// spawn sets up a thread record, recycling an earlier run's record of the
// same id, and starts it on a pool goroutine, which parks immediately
// awaiting the thread's first turn.
func (rt *Runtime) spawn(name string, fn Proc) *thread {
	id := len(rt.threads)
	var t *thread
	if id < cap(rt.threads) {
		t = rt.threads[:id+1][id]
	}
	if t == nil {
		t = &thread{resume: make(chan struct{})}
	}
	*t = thread{
		id:          trace.TID(id),
		name:        name,
		proc:        fn,
		handle:      T{rt: rt, t: t},
		resume:      t.resume,
		state:       stateRunnable,
		selWatch:    t.selWatch[:0],
		locOverride: locNone,
	}
	rt.threads = append(rt.threads, t)
	rt.symbols.Threads = append(rt.symbols.Threads, name)
	rt.pool.start(&t.handle)
	return t
}

// loop is the scheduler goroutine. It only brackets the run: it hands the
// baton to the first picked thread and then sleeps until a baton holder
// hits a terminal condition (all done, deadlock, or error) — every
// intermediate switch is a direct thread→thread handoff that never wakes
// this goroutine (see handoff).
func (rt *Runtime) loop() error {
	if next, ok := rt.pickNext(); ok {
		rt.noteHandoffStart()
		rt.threads[next].resume <- struct{}{}
		<-rt.toSched
	}
	return rt.finish()
}

// finish settles a terminal state on the scheduler goroutine: the baton
// came back because the run errored, completed, or deadlocked.
func (rt *Runtime) finish() error {
	if rt.err != nil {
		rt.killAll()
		return rt.err
	}
	if rt.allDone() {
		return nil
	}
	err := rt.deadlockError()
	rt.err = err
	rt.killAll()
	return err
}

// pickNext runs one scheduling decision: build the runnable set, consult
// the strategy, update the switch telemetry, and install the choice as
// rt.current. ok=false means the baton must go to the scheduler goroutine:
// the run errored or diverged (rt.err is set), or no thread is runnable
// (completion or deadlock — finish tells them apart). Exactly one
// goroutine — the baton holder — calls this at a time.
func (rt *Runtime) pickNext() (trace.TID, bool) {
	if rt.err != nil {
		return 0, false
	}
	runnable := rt.runnableIDs()
	if len(runnable) == 0 {
		return 0, false
	}
	next := rt.strat.Pick(runnable, rt.current)
	if !containsTID(runnable, next) {
		rt.err = fmt.Errorf("%w: strategy %s picked T%d; runnable %v",
			ErrReplayDiverged, rt.strat.Name(), next, runnable)
		return 0, false
	}
	if next != rt.current {
		rt.switches++
		if rt.current >= 0 && containsTID(runnable, rt.current) {
			rt.preemptions++
		}
	}
	rt.current = next
	return next, true
}

// handoff transfers the baton from t without waking the scheduler
// goroutine: one channel send when the strategy picks a different thread,
// zero channel operations when it keeps t running (the elided park — the
// decision was forced or the strategy declined to preempt, so the running
// thread just continues). parkAfter says whether t expects to run again (a
// preemption point, or a thread that just blocked) or is exiting
// (threadBody's defer). Only the terminal transitions — completion,
// deadlock, error — fall back to the scheduler goroutine.
func (rt *Runtime) handoff(t *thread, parkAfter bool) {
	if rt.killed {
		// Only a dying thread can observe this: killAll holds the baton
		// and resumes parked threads one by one, each unwinding via
		// errKilled. An op in one of its defers (a WithLock's Release)
		// that reaches a preemption point or blocks is aborted here, so
		// that only the exit in threadBody's defer completes killAll's
		// resume/toSched handshake, once per thread.
		if parkAfter {
			panic(errKilled)
		}
		rt.toSched <- struct{}{}
		return
	}
	next, ok := rt.pickNext()
	if !ok {
		// Terminal: wake the scheduler goroutine to settle the run.
		rt.toSched <- struct{}{}
		if parkAfter {
			rt.waitTurn(t) // resumed only by killAll; unwinds via errKilled
		}
		return
	}
	if next == t.id {
		rt.elidedParks++
		return
	}
	rt.directHandoffs++
	rt.noteHandoffStart()
	rt.threads[next].resume <- struct{}{}
	if parkAfter {
		rt.waitTurn(t)
	}
}

// noteHandoffStart stamps the baton-carried handoff timestamp immediately
// before a resume-channel send; the resumed goroutine settles the interval
// in noteResumed. No-op unless phase attribution is on.
func (rt *Runtime) noteHandoffStart() {
	if rt.phaseOn {
		rt.handoffT0 = time.Now()
	}
}

// noteResumed closes the handoff interval opened by noteHandoffStart. It
// runs on the resumed goroutine right after the resume-channel receive, so
// the channel orders the stamp before the read.
func (rt *Runtime) noteResumed() {
	if rt.phaseOn && !rt.handoffT0.IsZero() {
		rt.phaseHandoffNs += time.Since(rt.handoffT0).Nanoseconds()
		rt.handoffT0 = time.Time{}
	}
}

func containsTID(ids []trace.TID, id trace.TID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// runnableIDs rebuilds the runnable set into a buffer reused across
// scheduling decisions. Threads are stored in id order, so the result is
// sorted ascending by construction.
func (rt *Runtime) runnableIDs() []trace.TID {
	ids := rt.runnableBuf[:0]
	for _, t := range rt.threads {
		if t.state == stateRunnable {
			ids = append(ids, t.id)
		}
	}
	rt.runnableBuf = ids
	return ids
}

func (rt *Runtime) allDone() bool {
	for _, t := range rt.threads {
		if t.state != stateDone {
			return false
		}
	}
	return true
}

func (rt *Runtime) deadlockError() error {
	var b strings.Builder
	b.WriteString("no runnable threads;")
	for _, t := range rt.threads {
		if t.state != stateBlocked {
			continue
		}
		switch t.waitOn {
		case waitLock:
			fmt.Fprintf(&b, " T%d(%s) blocked on lock %s;", t.id, t.name, rt.symbols.MutexName(t.waitID))
		case waitCond:
			fmt.Fprintf(&b, " T%d(%s) blocked in wait;", t.id, t.name)
		case waitJoin:
			fmt.Fprintf(&b, " T%d(%s) blocked joining T%d;", t.id, t.name, t.waitID)
		case waitGroup:
			fmt.Fprintf(&b, " T%d(%s) blocked in group wait on %s;", t.id, t.name, rt.symbols.VarName(volatileBase+t.waitID))
		case waitChanSend:
			fmt.Fprintf(&b, " T%d(%s) blocked sending on chan %s;", t.id, t.name, rt.symbols.ChanName(t.waitID))
		case waitChanRecv:
			fmt.Fprintf(&b, " T%d(%s) blocked receiving on chan %s;", t.id, t.name, rt.symbols.ChanName(t.waitID))
		case waitChanSelect:
			fmt.Fprintf(&b, " T%d(%s) blocked in select (%d cases);", t.id, t.name, len(t.selWatch))
		}
	}
	if cycle := rt.waitsForCycle(); len(cycle) > 0 {
		b.WriteString(" waits-for cycle:")
		for _, id := range cycle {
			fmt.Fprintf(&b, " T%d ->", id)
		}
		fmt.Fprintf(&b, " T%d", cycle[0])
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, b.String())
}

// waitsForCycle searches the waits-for graph — a blocked thread points at
// the thread it transitively needs (the lock owner or the joined child) —
// and returns one cycle's thread ids, or nil. Condition waits have no
// out-edge (their waker is unknowable), so pure lost-wakeup deadlocks
// report without a cycle.
func (rt *Runtime) waitsForCycle() []trace.TID {
	next := make(map[trace.TID]trace.TID)
	for _, t := range rt.threads {
		if t.state != stateBlocked {
			continue
		}
		switch t.waitOn {
		case waitLock:
			if owner := rt.mus[t.waitID].owner; owner >= 0 {
				next[t.id] = owner
			}
		case waitJoin:
			next[t.id] = trace.TID(t.waitID)
		}
	}
	for start := range next {
		slow, ok := next[start]
		if !ok {
			continue
		}
		seen := map[trace.TID]int{start: 0}
		path := []trace.TID{start}
		cur := slow
		for {
			if at, dup := seen[cur]; dup {
				return path[at:]
			}
			seen[cur] = len(path)
			path = append(path, cur)
			nxt, ok := next[cur]
			if !ok {
				break
			}
			cur = nxt
		}
	}
	return nil
}

// killAll resumes every live thread with the kill flag set so its goroutine
// unwinds, preventing leaks after an error. It indexes rather than ranges
// because a deferred Fork in an unwinding thread appends a thread, which
// must be killed too.
func (rt *Runtime) killAll() {
	rt.killed = true
	rt.phaseOn = false // teardown wakes are not handoffs
	for i := 0; i < len(rt.threads); i++ {
		t := rt.threads[i]
		if t.state == stateDone {
			continue
		}
		t.resume <- struct{}{}
		<-rt.toSched
	}
}

// threadBody runs one virtual thread on a pool goroutine, returning once
// the thread has finished or been killed.
func (rt *Runtime) threadBody(x *T) {
	t := x.t
	<-t.resume
	rt.noteResumed()
	defer func() {
		if r := recover(); r != nil && r != errKilled { //nolint:errorlint // sentinel identity
			if rt.err == nil {
				// Structured so the explorer can rewrap it (with the
				// schedule prefix) into an *ExploreError finding; the
				// stack is captured here, where the panic frames live.
				rt.err = &runPanic{where: fmt.Sprintf("T%d (%s)", t.id, t.name), val: r, stack: debug.Stack()}
			}
		}
		t.state = stateDone
		rt.wakeJoiners(t.id)
		rt.handoff(t, false)
	}()
	if rt.killed {
		panic(errKilled)
	}
	rt.emit(t, trace.OpBegin, 0, locNone)
	t.proc(x)
	rt.emit(t, trace.OpEnd, 0, locNone)
}

// waitTurn parks the calling thread until the scheduler resumes it.
func (rt *Runtime) waitTurn(t *thread) {
	<-t.resume
	rt.noteResumed()
	if rt.killed {
		panic(errKilled)
	}
}

// blockOn marks t blocked for the given reason and parks it. The waker is
// responsible for setting the state back to runnable.
func (rt *Runtime) blockOn(t *thread, kind waitKind, id uint64) {
	t.state = stateBlocked
	t.waitOn = kind
	t.waitID = id
	rt.handoff(t, true)
	t.waitOn = waitNone
}

func (rt *Runtime) wakeJoiners(id trace.TID) {
	for _, t := range rt.threads {
		if t.state == stateBlocked && t.waitOn == waitJoin && t.waitID == uint64(id) {
			t.state = stateRunnable
		}
	}
}

func (rt *Runtime) wakeLockWaiters(lockID uint64) {
	for _, t := range rt.threads {
		if t.state == stateBlocked && t.waitOn == waitLock && t.waitID == lockID {
			t.state = stateRunnable
		}
	}
}

func (rt *Runtime) wakeGroupWaiters(volID uint64) {
	for _, t := range rt.threads {
		if t.state == stateBlocked && t.waitOn == waitGroup && t.waitID == volID {
			t.state = stateRunnable
		}
	}
}

// locNone suppresses location capture for runtime-internal events.
const locNone trace.LocID = -1

// emitPC is the op-method entry to emit: it resolves a raw call-site PC
// (from capturePC) against the location cache and records the event. A
// thread-level location override (T.At) wins over PC capture entirely.
func (rt *Runtime) emitPC(t *thread, op trace.Op, target uint64, pc uintptr) {
	if t.locOverride != locNone {
		rt.emit(t, op, target, t.locOverride)
		return
	}
	var loc trace.LocID
	if pc != 0 {
		loc = rt.locs.lookup(rt.strings, pc)
	} else if !rt.noLoc {
		// Location capture is on but runtime.Callers produced no frames:
		// intern the deterministic sentinel so traces stay reproducible.
		loc = rt.locs.zeroFrame(rt.strings)
	}
	rt.emit(t, op, target, loc)
}

// emit records one event, feeds it to observers, and gives the strategy a
// preemption opportunity. loc is final: op methods resolve their call site
// via sitePC/emitPC; runtime-internal events pass locNone.
func (rt *Runtime) emit(t *thread, op trace.Op, target uint64, loc trace.LocID) {
	if loc == locNone {
		loc = 0
	}
	e := trace.Event{Idx: rt.events, Tid: t.id, Op: op, Target: target, Loc: loc}
	rt.events++
	if op == trace.OpYield {
		rt.yields++
	}
	if rt.events > rt.maxEvents {
		if rt.err == nil {
			rt.err = fmt.Errorf("sched: event budget exceeded (%d events); livelock?", rt.maxEvents)
		}
		panic(errKilled)
	}
	if rt.opts.Ctx != nil && rt.events&1023 == 0 {
		if cerr := rt.opts.Ctx.Err(); cerr != nil {
			if rt.err == nil {
				rt.err = fmt.Errorf("%w after %d events: %v", ErrCancelled, rt.events, cerr)
			}
			panic(errKilled)
		}
	}
	rt.schedule = append(rt.schedule, t.id)
	if rt.tr != nil {
		rt.tr.Append(e)
	}
	if rt.batch != nil {
		rt.batch = append(rt.batch, e)
		if len(rt.batch) == cap(rt.batch) {
			// Full buffer: fan the batch out to every observer. This runs
			// on the emitting virtual thread's goroutine, so an observer
			// panic here is caught by threadBody's recover and isolated
			// like any other panic inside a virtual thread.
			rt.flushBatch()
		}
	}
	// The strategy is always consulted (replay counts events in Preempt),
	// but a thread is never parked on its end event: it is about to hand
	// the baton back permanently, and parking it would consume a scheduling
	// slot that recorded schedules do not contain.
	if rt.strat.Preempt(e) && op != trace.OpEnd {
		rt.handoff(t, true)
	}
}

// flushBatch hands the pending event batch to every observer and resets
// the buffer for reuse. Observers must not retain the slice.
func (rt *Runtime) flushBatch() {
	pending := rt.batch
	if len(pending) == 0 {
		return
	}
	// Clear before delivering: if an observer panics mid-fanout, the batch
	// is not re-delivered to observers that already consumed it (the run is
	// aborted and its analysis results discarded anyway). Exactly one
	// goroutine runs at a time, so nothing appends while we iterate.
	rt.batch = rt.batch[:0]
	if rt.phaseOn {
		t0 := time.Now()
		for _, o := range rt.observers {
			o.ObserveBatch(pending)
		}
		rt.phaseAnalysisNs += time.Since(t0).Nanoseconds()
		return
	}
	for _, o := range rt.observers {
		o.ObserveBatch(pending)
	}
}

// flushBatchFinal delivers the last partial batch at the end of a run.
// There is no thread recover on the scheduler goroutine, so an observer
// panic is converted here into the same structured error a panic inside a
// virtual thread produces, stack included, and the explorers report it as
// an *ExploreError finding either way.
func (rt *Runtime) flushBatchFinal() (err error) {
	if len(rt.batch) == 0 {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = &runPanic{where: "the final flush of observers", val: r, stack: debug.Stack()}
		}
	}()
	rt.flushBatch()
	return nil
}

// fail aborts the run with a workload-usage error raised inside a thread.
func (rt *Runtime) fail(format string, args ...any) {
	if rt.err == nil {
		rt.err = fmt.Errorf("sched: "+format, args...)
	}
	panic(errKilled)
}

// unknownLoc is the deterministic sentinel interned when runtime.Callers
// reports no frames (an impossible skip depth). It keeps the zero-frame
// fallback distinguishable from both "no location" (id 0, the empty
// string) and every real source location, instead of silently aliasing
// whatever string happens to hold id 0.
const unknownLoc = "unknown:0"

// locCacheMinSize is the initial slot count of a location cache; big
// enough that typical workloads (tens of instrumentation sites) never
// rehash.
const locCacheMinSize = 256

// locCache interns source locations keyed by the raw call-site program
// counter, so steady-state events never symbolize frames: per-event
// capture is one PC read plus one probe of an open-addressed table. PCs
// are inlining-correct keys — each logical call site has a distinct return
// PC, and CallersFrames expands inlined frames when a PC is first
// symbolized — which the inlining test pins down.
//
// The cache lives as long as its Runtime, so an exploration resolves each
// PC to its name, and hashes each name, once per search. LocIDs stay per
// run: a name's id is valid only in the run whose stamp it carries, and
// the name's first capture in a later run appends it to that run's string
// table and restamps it. So a run interns its locations in first-capture
// order, its LocIDs do not depend on what other runs captured, and its
// string table holds each name once without hashing any.
type locCache struct {
	slots []locSlot
	n     int // occupied slots
	// names holds every location name the cache has seen, and byName
	// indexes it: the names of PCs, of T.At overrides, and the zero-frame
	// sentinel.
	names  []locName
	byName map[string]int32
	run    uint64 // the current run's stamp
	hits   int    // captures of a PC already in the table
	miss   int    // captures that symbolized a PC new to the table
}

// locSlot maps a PC to its name; pc 0 marks an empty slot (PCs are never
// 0).
type locSlot struct {
	pc   uintptr
	name int32 // index into names
}

// locName is one location name and its id in the string table of run.
type locName struct {
	name string
	id   trace.LocID
	run  uint64
}

// nextRun stamps a new run, which makes every name's id stale, and zeroes
// the per-run counters.
func (c *locCache) nextRun() {
	c.hits, c.miss = 0, 0
	c.run++
}

// capture records the caller's caller at the given logical skip depth.
// The hot path captures via capturePC/emitPC instead (frame-pointer read
// on amd64, inlined runtime.Callers elsewhere); this entry point serves
// tests and non-hot callers, including the zero-frame sentinel path.
func (c *locCache) capture(strs *trace.Strings, skip int) trace.LocID {
	var pcs [1]uintptr
	if runtime.Callers(skip+1, pcs[:]) == 0 {
		return c.zeroFrame(strs)
	}
	return c.lookup(strs, pcs[0])
}

// zeroFrame is the deterministic fallback when the unwinder produced no
// frames at all.
func (c *locCache) zeroFrame(strs *trace.Strings) trace.LocID {
	c.miss++
	_, id := c.intern(strs, unknownLoc)
	return id
}

// lookup resolves a call-site PC to its location id in the current run's
// string table strs, symbolizing it at most once per cache.
func (c *locCache) lookup(strs *trace.Strings, pc uintptr) trace.LocID {
	if c.slots == nil {
		c.slots = make([]locSlot, locCacheMinSize)
	}
	mask := uintptr(len(c.slots) - 1)
	for i := locHash(pc) & mask; c.slots[i].pc != 0; i = (i + 1) & mask {
		if c.slots[i].pc == pc {
			c.hits++
			return c.id(strs, c.slots[i].name)
		}
	}
	c.miss++
	name, id := c.intern(strs, symbolName(pc))
	c.insert(locSlot{pc: pc, name: name})
	return id
}

// intern returns name's index in names, adding it if new, and its id in
// the current run's string table strs.
func (c *locCache) intern(strs *trace.Strings, name string) (int32, trace.LocID) {
	if i, ok := c.byName[name]; ok {
		return i, c.id(strs, i)
	}
	if c.byName == nil {
		c.byName = make(map[string]int32)
	}
	i := int32(len(c.names))
	id := strs.AppendNew(name)
	c.names = append(c.names, locName{name: name, id: id, run: c.run})
	c.byName[name] = i
	return i, id
}

// id returns the id of names[i] in the current run's string table strs,
// appending the name on its first use in the run.
func (c *locCache) id(strs *trace.Strings, i int32) trace.LocID {
	n := &c.names[i]
	if n.run != c.run {
		n.id, n.run = strs.AppendNew(n.name), c.run
	}
	return n.id
}

// symtab is the process-wide PC → "dir/file.go:line" table behind every
// locCache. A PC's name is fixed for the life of the process, so only the
// first capture of a call site in the process pays CallersFrames +
// Sprintf; a Run, which starts with an empty locCache, finds its names
// here. The table holds one entry per instrumented call site in the
// binary, so it is bounded; it is filled lazily, never at package init. A
// typed map under an RWMutex, not a sync.Map: the read-mostly path is one
// read lock and one map probe, with no interface boxing of the key.
var symtab struct {
	mu    sync.RWMutex
	names map[uintptr]string
}

// symbolName returns pc's call-site name, symbolizing it on the process's
// first request.
func symbolName(pc uintptr) string {
	symtab.mu.RLock()
	name, ok := symtab.names[pc]
	symtab.mu.RUnlock()
	if ok {
		return name
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	f, _ := frames.Next()
	name = fmt.Sprintf("%s:%d", trimPath(f.File), f.Line)
	symtab.mu.Lock()
	if symtab.names == nil {
		symtab.names = make(map[uintptr]string)
	}
	symtab.names[pc] = name
	symtab.mu.Unlock()
	return name
}

// insert adds a new slot, doubling the table past 3/4 load so probe chains
// stay short.
func (c *locCache) insert(s locSlot) {
	if (c.n+1)*4 > len(c.slots)*3 {
		old := c.slots
		c.slots = make([]locSlot, 2*len(old))
		for _, o := range old {
			if o.pc != 0 {
				c.place(o)
			}
		}
	}
	c.place(s)
	c.n++
}

func (c *locCache) place(s locSlot) {
	mask := uintptr(len(c.slots) - 1)
	i := locHash(s.pc) & mask
	for c.slots[i].pc != 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = s
}

// locHash is Fibonacci hashing on the PC. Call-site PCs share their high
// bits and stride by instruction alignment, so the multiply mixes them
// into the high half, which becomes the table index after masking.
func locHash(pc uintptr) uintptr {
	return uintptr((uint64(pc) * 0x9E3779B97F4A7C15) >> 32)
}

// trimPath keeps the last two path segments for compact, stable locations.
func trimPath(file string) string {
	i := strings.LastIndexByte(file, '/')
	if i < 0 {
		return file
	}
	j := strings.LastIndexByte(file[:i], '/')
	return file[j+1:]
}
