// Package flight is the reproduction's always-available flight recorder:
// per-track lock-free ring buffers of fixed-size structured events — span
// begin/end, instants, and flow arrows — that reconstruct *when* and *why*
// an exploration spent its wall clock, where internal/obs's counters only
// say how much. Recordings export as Chrome trace_event JSON (loadable in
// Perfetto, see export.go) or as a compact binary spill file (spill.go);
// cmd/explorescope merges, filters, converts, and attributes them.
//
// Design rules (DESIGN.md, "Observability"):
//
//   - Disabled is free. The recorder is a package-level atomic pointer;
//     instrumentation sites guard with `if flight.Enabled()` (or a nil
//     Active() check) — one atomic load, no allocation, no time syscall.
//     The TraceGen/FusedCheckers benchmarks pin the budget: < 1% disabled.
//   - Recording never blocks. A full track drops the event and counts the
//     drop (flight.dropped); the hot path is one atomic reserve plus a
//     struct store, so enabled overhead stays < 5% on the same benchmarks.
//   - Events are fixed-size structs. Names are static Go strings (no
//     per-event interning); payloads are up to four int64 args plus one
//     string annotation for statuses.
//
// Span granularity is deliberately coarse — schedules, analysis passes,
// pool tasks, event batches — never per instrumented event: the per-event
// story is the trace itself, the flight recorder tells the scheduling and
// phase story around it.
package flight

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind discriminates the fixed-size event records.
type Kind uint8

const (
	// KindBegin opens a span (trace_event ph "B").
	KindBegin Kind = 1 + iota
	// KindEnd closes the innermost open span of the same ID (ph "E").
	KindEnd
	// KindInstant marks a point in time (ph "i"), e.g. a budget cutoff.
	KindInstant
	// KindFlowOut starts a flow arrow (ph "s"), e.g. a steal's origin.
	KindFlowOut
	// KindFlowIn terminates a flow arrow (ph "f"), e.g. where the stolen
	// prefix was replayed.
	KindFlowIn
)

// Cat is the event's category — the coarse subsystem attribution Perfetto
// filters on.
type Cat uint8

const (
	// CatSched is the explorer: schedule replays, steals, cutoffs.
	CatSched Cat = iota
	// CatRun is the virtual runtime: per-run phase attribution.
	CatRun
	// CatPool is the harness work pool: spawned and inline tasks.
	CatPool
	// CatChecker is the analysis layer: per-checker event batches.
	CatChecker
	// CatHarness is the experiment driver: fused passes, table sweeps.
	CatHarness
	// CatCLI is tool-level bracketing: batteries, recordings.
	CatCLI
	catCount = iota
)

// catNames is indexed by Cat; the zero value of an out-of-range Cat prints
// as "?".
var catNames = [catCount]string{"sched", "run", "pool", "checker", "harness", "cli"}

// String returns the category's trace_event name.
func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "?"
}

// CatByName inverts String — the JSON reader and tool filter flags map
// user-facing category names back to Cat values through it.
func CatByName(s string) (Cat, bool) {
	for i, n := range catNames {
		if n == s {
			return Cat(i), true
		}
	}
	return 0, false
}

// Arg is one named integer payload on an event. A zero Key marks an unused
// slot.
type Arg struct {
	Key string
	Val int64
}

// A constructs an Arg (reads better at call sites than a struct literal).
func A(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// maxArgs is the fixed arg capacity per event; excess args are dropped
// silently (fixed-size records are the point).
const maxArgs = 4

// Event is one fixed-size flight-recorder record. TS is nanoseconds since
// the recorder's epoch; ID is the span ID (Begin/End) or flow ID
// (FlowOut/FlowIn); Parent is the enclosing span at Begin (0 = top level);
// Str is an optional string annotation (e.g. an ExploreReport status).
type Event struct {
	TS     int64
	ID     uint64
	Parent uint64
	Kind   Kind
	Cat    Cat
	Name   string
	Str    string
	Args   [maxArgs]Arg
}

func (e *Event) setArgs(args []Arg) {
	n := len(args)
	if n > maxArgs {
		n = maxArgs
	}
	copy(e.Args[:n], args[:n])
}

// SpanID identifies an open span; 0 is "no span" (used for Parent at top
// level).
type SpanID = uint64

// DefaultTrackCap is a track's ring capacity when Options.TrackCap is zero:
// 16384 events holds the schedule spans of the largest exhaustive certify
// runs with room to spare while keeping a track under ~2.5 MiB.
const DefaultTrackCap = 1 << 14

// Options configures a recorder.
type Options struct {
	// TrackCap is the per-track event capacity; once a track is full,
	// further events on it are dropped (and counted). 0 = DefaultTrackCap.
	TrackCap int
}

// Recorder owns the tracks of one recording session. Hot paths never touch
// its mutex: track handles are resolved once (create-or-get, or via the
// Acquire/Release pool for ephemeral goroutines) and events go straight to
// the track's ring.
type Recorder struct {
	epoch    time.Time
	trackCap int

	mu     sync.Mutex
	tracks []*Track
	free   map[string][]*Track // Release'd reusable tracks by prefix

	ids atomic.Uint64 // span/flow ID allocator; post-increment, so IDs start at 1

	// FlushMetrics deltas. Written only by FlushMetrics callers (Disable,
	// the telemetry snapshot path), which never race in practice; a stale
	// delta is progress noise, not corruption.
	flushedEvents, flushedDropped int64
}

// New builds a recorder without installing it as the process-wide active
// one (tests; Enable for the real thing).
func New(o Options) *Recorder {
	cap := o.TrackCap
	if cap <= 0 {
		cap = DefaultTrackCap
	}
	return &Recorder{epoch: time.Now(), trackCap: cap, free: map[string][]*Track{}}
}

// active is the process-wide recorder; nil means disabled and every
// instrumentation site short-circuits on that nil.
var active atomic.Pointer[Recorder]

// Enable installs a fresh recorder as the process-wide active one and
// returns it. Call Disable to stop recording and take the data.
func Enable(o Options) *Recorder {
	r := New(o)
	active.Store(r)
	return r
}

// Disable uninstalls the active recorder and returns it (nil if none was
// active). It also flushes the recording totals into the obs.Default
// registry (flight.events / flight.dropped), so `-telemetry` run reports
// carry the recorder's own health.
func Disable() *Recorder {
	r := active.Swap(nil)
	if r != nil {
		r.FlushMetrics()
	}
	return r
}

// Active returns the installed recorder, or nil when recording is off.
// Instrumentation sites hold the returned pointer for a whole operation so
// a mid-operation Disable cannot tear a span in half.
func Active() *Recorder { return active.Load() }

// Enabled reports whether a recorder is installed — the one-atomic-load
// fast-path guard.
func Enabled() bool { return active.Load() != nil }

// Pre-resolved registry handles (hot-path rule, DESIGN.md "Observability").
var (
	mFlightEvents  = obs.Default.Counter("flight.events")
	mFlightDropped = obs.Default.Counter("flight.dropped")
)

// FlushMetrics publishes the recording's totals as deltas against what was
// already flushed, so repeated flushes (progress snapshots plus the final
// Disable) never double-count.
func (r *Recorder) FlushMetrics() {
	events, dropped := r.totals()
	mFlightEvents.Add(events - r.flushedEvents)
	mFlightDropped.Add(dropped - r.flushedDropped)
	r.flushedEvents, r.flushedDropped = events, dropped
}

// totals sums recorded and dropped events across tracks.
func (r *Recorder) totals() (events, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		n := t.n.Load()
		if c := int64(len(t.buf)); n > c {
			dropped += n - c
			n = c
		}
		events += n
	}
	return events, dropped
}

// now returns nanoseconds since the recorder's epoch.
func (r *Recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// NewID allocates a fresh span/flow ID (never 0).
func (r *Recorder) NewID() uint64 { return r.ids.Add(1) }

// Track returns the named track, creating it on first use. Tracks are
// logical timeline lanes (one per worker, driver, or pool slot); creation
// takes the recorder lock, so resolve once and hold the handle. Appends
// are multi-producer safe, but interleaved spans from concurrent producers
// on one track render confusingly — give concurrent goroutines their own
// tracks (Acquire does this for ephemeral ones).
func (r *Recorder) Track(name string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		if t.name == name {
			return t
		}
	}
	return r.newTrackLocked(name)
}

func (r *Recorder) newTrackLocked(name string) *Track {
	t := &Track{rec: r, id: len(r.tracks) + 1, name: name, buf: make([]Event, r.trackCap)}
	r.tracks = append(r.tracks, t)
	return t
}

// Acquire leases a track for an ephemeral goroutine (a pool task, an
// analysis pass): it reuses a previously Released track with the same
// prefix or creates "<prefix>-N". Pair with Release so a bounded worker
// pool reuses a bounded track set instead of minting one lane per task.
func (r *Recorder) Acquire(prefix string) *Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	if list := r.free[prefix]; len(list) > 0 {
		t := list[len(list)-1]
		r.free[prefix] = list[:len(list)-1]
		return t
	}
	t := r.newTrackLocked(prefix)
	t.prefix = prefix
	return t
}

// Release returns an Acquired track to the reuse pool.
func (r *Recorder) Release(t *Track) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free[t.prefix] = append(r.free[t.prefix], t)
}

// Track is one timeline lane: a fixed-capacity ring of events. Appends are
// lock-free — an atomic reserve plus a plain store — and never block: a
// full track counts drops instead. Reads (Snapshot) are only exact once
// producers have quiesced (after Disable).
type Track struct {
	rec    *Recorder
	id     int
	name   string
	prefix string // non-empty for Acquired tracks
	buf    []Event
	n      atomic.Int64 // reserved slots; may exceed len(buf) (the excess was dropped)
}

// Name returns the track's display name.
func (t *Track) Name() string { return t.name }

// Emit appends one raw event, stamping TS if the caller left it zero. The
// helper methods (Begin/End/Instant/Flow*) are the normal entry points;
// Emit exists for tests and importers that need explicit timestamps.
func (t *Track) Emit(e Event) {
	if t == nil {
		return
	}
	if e.TS == 0 {
		e.TS = t.rec.now()
	}
	slot := t.n.Add(1) - 1
	if slot >= int64(len(t.buf)) {
		return // full: dropped, accounted by totals()
	}
	t.buf[slot] = e
}

// Begin opens a span and returns the handle its End closes. parent is the
// enclosing span's ID (0 = top level); it nests the span for attribution
// (self-time) even when Perfetto would already nest it by timestamps.
func (t *Track) Begin(cat Cat, name string, parent SpanID, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	id := t.rec.NewID()
	e := Event{Kind: KindBegin, Cat: cat, Name: name, ID: id, Parent: parent}
	e.setArgs(args)
	t.Emit(e)
	return Span{t: t, id: id, cat: cat, name: name}
}

// Instant records a point event; str is an optional annotation (pass ""),
// e.g. the ExploreReport status of a budget cutoff.
func (t *Track) Instant(cat Cat, name, str string, args ...Arg) {
	if t == nil {
		return
	}
	e := Event{Kind: KindInstant, Cat: cat, Name: name, Str: str}
	e.setArgs(args)
	t.Emit(e)
}

// FlowOut starts a flow arrow with the given ID on this track (the steal's
// origin, the handoff's source).
func (t *Track) FlowOut(cat Cat, name string, flow uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KindFlowOut, Cat: cat, Name: name, ID: flow})
}

// FlowIn terminates the flow arrow with the given ID on this track.
func (t *Track) FlowIn(cat Cat, name string, flow uint64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KindFlowIn, Cat: cat, Name: name, ID: flow})
}

// Span is an open measurement returned by Begin; its zero value (from a
// nil track) is safe to End.
type Span struct {
	t    *Track
	id   SpanID
	cat  Cat
	name string
}

// ID returns the span's ID, for use as a child's parent.
func (s Span) ID() SpanID { return s.id }

// End closes the span; args are attached to the end record (Perfetto
// merges begin and end args), which is where results — event counts, phase
// nanoseconds, statuses — belong.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	e := Event{Kind: KindEnd, Cat: s.cat, Name: s.name, ID: s.id}
	e.setArgs(args)
	s.t.Emit(e)
}

// EndStr is End with a string annotation (e.g. a status).
func (s Span) EndStr(str string, args ...Arg) {
	if s.t == nil {
		return
	}
	e := Event{Kind: KindEnd, Cat: s.cat, Name: s.name, ID: s.id, Str: str}
	e.setArgs(args)
	s.t.Emit(e)
}

// Meter is a span site that is measured whether or not a recording is on:
// every span begun through it adds one to <metric>.count and its wall time
// to <metric>.ns in obs.Default, and is recorded as a flight span when it
// is begun on a track. One call site yields both the always-on metric and
// the span; with the recorder off the track is nil and the span costs two
// clock reads and two atomic adds.
type Meter struct {
	cat   Cat
	name  string
	count *obs.Counter
	ns    *obs.Counter
}

// NewMeter returns the meter for spans named name in category cat,
// counting into <metric>.count and <metric>.ns. Resolve it once, at
// package level (the hot-path rule).
func NewMeter(cat Cat, name, metric string) *Meter {
	return &Meter{
		cat:   cat,
		name:  name,
		count: obs.Default.Counter(metric + ".count"),
		ns:    obs.Default.Counter(metric + ".ns"),
	}
}

// Begin opens a metered span on t; a nil t (recorder off) still counts.
func (m *Meter) Begin(t *Track, parent SpanID, args ...Arg) MeteredSpan {
	return MeteredSpan{Span: t.Begin(m.cat, m.name, parent, args...), m: m, t0: time.Now()}
}

// MeteredSpan is a Span begun through a Meter; ending it also counts it.
type MeteredSpan struct {
	Span
	m  *Meter
	t0 time.Time
}

// End closes the span like Span.End and adds it to the meter's counters.
func (s MeteredSpan) End(args ...Arg) {
	s.count()
	s.Span.End(args...)
}

// EndStr closes the span like Span.EndStr and adds it to the meter's
// counters.
func (s MeteredSpan) EndStr(str string, args ...Arg) {
	s.count()
	s.Span.EndStr(str, args...)
}

func (s MeteredSpan) count() {
	s.m.count.Inc()
	s.m.ns.Add(int64(time.Since(s.t0)))
}
