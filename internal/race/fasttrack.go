// Package race implements a FastTrack-style happens-before race detector
// (Flanagan & Freund, PLDI 2009) over the module's event model, plus a
// slower full-vector-clock reference detector used as a testing oracle.
//
// The detector serves two roles in the reproduction: it is Baseline 1 in the
// checker-comparison experiment (race-freedom warnings vs cooperability
// warnings), and it supplies the mover classification substrate — an access
// is a both-mover exactly when it is race-free, which is what Lipton
// reduction and therefore the cooperability checker consume.
//
// State layout follows the dense-checker design (DESIGN.md, "Analysis state
// layout"): thread clocks live in a TID-indexed slice, variable and
// lock/volatile state in paged tables keyed by their near-dense ids, race
// dedup in an open-addressed set, and the per-release clock snapshots reuse
// per-lock buffers instead of allocating a fresh copy each time. The
// analysis semantics are unchanged — warning output is byte-identical to
// the former map-based layout.
package race

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dense"
	"repro/internal/trace"
	"repro/internal/vc"
)

// Kind classifies a race by the order of the conflicting accesses.
type Kind uint8

const (
	// WriteWrite is a write racing with an earlier write.
	WriteWrite Kind = iota
	// WriteRead is a read racing with an earlier write.
	WriteRead
	// ReadWrite is a write racing with an earlier read.
	ReadWrite
)

// String names the race kind.
func (k Kind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	case ReadWrite:
		return "read-write"
	}
	return "unknown"
}

// Race reports one data race: the current access and what it raced with.
type Race struct {
	Kind Kind
	// Var is the shared-variable id both accesses touched.
	Var uint64
	// Access is the second (detecting) access.
	Access trace.Event
	// PrevTid is the thread of the earlier conflicting access.
	PrevTid trace.TID
	// PrevLoc is the source location of the earlier access when known.
	PrevLoc trace.LocID
}

// String renders a compact description; resolve locations via the trace's
// string table for full reports.
func (r Race) String() string {
	return fmt.Sprintf("%s race on var %d: T%d %s at #%d vs T%d",
		r.Kind, r.Var, r.Access.Tid, r.Access.Op, r.Access.Idx, r.PrevTid)
}

// varState is one variable's FastTrack metadata. The zero value of the
// slot means "never accessed" (live distinguishes it, since the zero Epoch
// is a real epoch, not NoEpoch); vs initializes the slot on first touch.
type varState struct {
	w      vc.Epoch // last write
	r      vc.Epoch // last read when unshared
	rvc    vc.VC    // read clocks when shared
	shared bool
	live   bool
	wLoc   trace.LocID
	wTid   trace.TID
	rLoc   trace.LocID
	rTid   trace.TID
}

// lockKey, volKey, and chanKey interleave locks, volatiles, and channels
// into one table's key space: all three are "synchronization object → clock
// snapshot" maps, so sharing a table cuts the page overhead of a fresh
// detector. Small ids stay dense; runtime volatile ids (offset by 1<<32)
// land in the table's overflow map, exactly as sparse map keys did before.
// The tag moved from 1 bit to 2 when channels arrived; the keys are
// internal to the detector, so the widening is invisible outside.
func lockKey(id uint64) uint64 { return id << 2 }
func volKey(id uint64) uint64  { return id<<2 | 1 }
func chanKey(id uint64) uint64 { return id<<2 | 2 }

// Detector is a streaming FastTrack race detector. Feed it every event of a
// trace in order via ObserveBatch (or Event); it implements sched.Observer.
// The zero value is not usable; call New.
type Detector struct {
	// threads[t] is thread t's clock, nil until the thread is observed.
	// TIDs are dense (the runtime assigns consecutive ids), so a slice
	// replaces the former map on every event.
	threads []vc.VC
	// sync holds the per-lock and per-volatile clock snapshot buffers
	// (see lockKey/volKey). Buffers are reused across releases: the release
	// rule copies the thread clock into place instead of allocating.
	sync dense.Table[vc.VC]
	// vars holds per-variable epochs/read clocks in a paged table: plain
	// variable ids are small and near-dense (Table 1 in EXPERIMENTS.md).
	vars dense.Table[varState]

	races []Race
	seen  raceSet
	// racy flags raced variables; racyN counts them. The mover classifier
	// queries IsRacyVar on every access, so this is hot-path state.
	racy      dense.Table[bool]
	racyN     int
	lastRaced bool
	events    int
	// onsets records, per racy variable in first-race order, the event
	// index at which it first raced, so it lists exactly the racy
	// variables. An access at index i is racy *to an online observer* iff
	// its variable's onset is <= i, so a later pass can replay online
	// racy-knowledge without running a second detector
	// (movers.NewWithRaceOnsets).
	onsets []varOnset

	// Telemetry, counted in plain fields (a detector is single-goroutine
	// per run) and flushed to the obs registry by FlushMetrics: accesses is
	// the read+write event count, fastHits the same-epoch fast-path exits,
	// carved the cumulative clock slots taken from arenas.
	accesses int
	fastHits int
	carved   int
	// flushedEvents/flushedRaces remember what FlushMetrics already
	// published so repeated flushes only add deltas.
	flushedEvents int
	flushedRaces  int

	// arena is carved into thread clocks, read vectors, and sync snapshot
	// buffers so a whole analysis costs O(1) clock allocations instead of
	// O(threads + releases).
	arena []vc.Clock
}

// New returns an empty detector.
func New() *Detector { return &Detector{} }

// HintEvents presizes the thread clocks and sizes the clock arena's first
// block for a trace of n events; Analyze passes the trace's exact length.
// A no-op once events have been processed.
func (d *Detector) HintEvents(n int) {
	if n <= 0 || d.events > 0 {
		return
	}
	if d.threads == nil {
		d.threads = make([]vc.VC, 0, 16)
	}
	if d.arena == nil {
		size := n / 4
		if size < arenaBlock {
			size = arenaBlock
		}
		if size > 1<<16 {
			size = 1 << 16
		}
		d.arena = make([]vc.Clock, 0, size)
	}
}

const arenaBlock = 1024

// carve returns a zeroed clock of length n whose backing region (rounded up
// to a power of two, at least 16) comes from the shared arena, so in-place
// growth up to the region size never reallocates.
func (d *Detector) carve(n int) vc.VC {
	region := 16
	for region < n {
		region *= 2
	}
	if len(d.arena)+region > cap(d.arena) {
		size := arenaBlock
		if region > size {
			size = region
		}
		d.arena = make([]vc.Clock, 0, size)
	}
	off := len(d.arena)
	d.arena = d.arena[:off+region]
	d.carved += region
	return vc.VC(d.arena[off : off+n : off+region])
}

// snapshot copies src into dst reusing dst's storage, carving a fresh
// buffer from the arena only when dst is too small.
func (d *Detector) snapshot(dst, src vc.VC) vc.VC {
	if cap(dst) < len(src) {
		dst = d.carve(len(src))
	}
	return src.CopyInto(dst)
}

// clock returns thread t's vector clock, materializing it on first use.
// The fast path is inlinable — a bounds check and a nil check — so the
// per-event cost is two compares, not a function call.
func (d *Detector) clock(t trace.TID) vc.VC {
	ti := int(t)
	if ti < len(d.threads) {
		if c := d.threads[ti]; c != nil {
			return c
		}
	}
	return d.clockSlow(ti)
}

func (d *Detector) clockSlow(ti int) vc.VC {
	if ti >= len(d.threads) {
		if ti >= cap(d.threads) {
			grown := make([]vc.VC, ti+1, 2*(ti+1))
			copy(grown, d.threads)
			d.threads = grown
		} else {
			d.threads = d.threads[:ti+1]
		}
	}
	c := d.threads[ti]
	if c == nil {
		c = d.carve(ti + 1)
		c[ti] = 1
		d.threads[ti] = c
	}
	return c
}

// vs returns variable x's state, initializing the slot on first touch.
func (d *Detector) vs(x uint64) *varState {
	s := d.vars.At(x)
	if !s.live {
		s.live = true
		s.w, s.r = vc.NoEpoch, vc.NoEpoch
		s.wTid, s.rTid = -1, -1
	}
	return s
}

// Event processes one instrumented event. Events must arrive in trace order.
func (d *Detector) Event(e trace.Event) {
	d.events++
	d.lastRaced = false
	t := e.Tid
	switch e.Op {
	case trace.OpBegin, trace.OpEnd, trace.OpNotify,
		trace.OpYield, trace.OpEnter, trace.OpExit,
		trace.OpAtomicBegin, trace.OpAtomicEnd, trace.OpSelect:
		// No happens-before effect. Begin still materializes the clock so
		// epochs are well-defined. Select has no effect of its own: the
		// committed case's send/recv event carries the synchronization.
		d.clock(t)
	case trace.OpFork:
		child := trace.TID(e.Target)
		cc := d.clock(child).Join(d.clock(t))
		d.threads[child] = cc
		d.threads[t] = d.clock(t).Tick(int(t))
	case trace.OpJoin:
		child := trace.TID(e.Target)
		d.threads[t] = d.clock(t).Join(d.clock(child))
	case trace.OpAcquire:
		if lp := d.sync.Probe(lockKey(e.Target)); lp != nil && *lp != nil {
			d.threads[t] = d.clock(t).Join(*lp)
		} else {
			d.clock(t) // materialize, as the map layout's Join(nil) did
		}
	case trace.OpRelease, trace.OpWait:
		// Wait's release half; its reacquire arrives as a normal acquire.
		lp := d.sync.At(lockKey(e.Target))
		*lp = d.snapshot(*lp, d.clock(t))
		d.threads[t] = d.clock(t).Tick(int(t))
	case trace.OpVolWrite:
		vp := d.sync.At(volKey(e.Target))
		*vp = d.snapshot(*vp, d.clock(t))
		d.threads[t] = d.clock(t).Tick(int(t))
	case trace.OpVolRead:
		if vp := d.sync.Probe(volKey(e.Target)); vp != nil && *vp != nil {
			d.threads[t] = d.clock(t).Join(*vp)
		} else {
			d.clock(t)
		}
	case trace.OpSend, trace.OpRecv, trace.OpClose:
		// Channel ops are modeled as a symmetric acquire+release on a
		// per-channel synchronization object: join the channel's clock, then
		// snapshot the (joined) thread clock back into it and tick. This is
		// sound for Go channel semantics — it includes every real edge (send
		// happens-before the receive that takes it; close happens-before a
		// recv observing closed) — and over-synchronizes buffered channels
		// (a later send is not really ordered after an unrelated earlier
		// recv), trading a few missed-race-report opportunities for never
		// reporting a false race through a channel. DESIGN.md, "Channel
		// semantics".
		k := chanKey(trace.ChanID(e.Target))
		if cp := d.sync.Probe(k); cp != nil && *cp != nil {
			d.threads[t] = d.clock(t).Join(*cp)
		}
		cp := d.sync.At(k)
		*cp = d.snapshot(*cp, d.clock(t))
		d.threads[t] = d.clock(t).Tick(int(t))
	case trace.OpRead:
		d.accesses++
		d.read(e)
	case trace.OpWrite:
		d.accesses++
		d.write(e)
	}
}

// read applies FastTrack's read rules.
func (d *Detector) read(e trace.Event) {
	t := e.Tid
	c := d.clock(t)
	s := d.vs(e.Target)
	ep := vc.MakeEpoch(int(t), c[t])

	if !s.shared && s.r == ep {
		// Same-epoch read; nothing to do, not even a write check (already
		// performed at the first read of this epoch).
		d.fastHits++
		return
	}
	if !s.w.LeqVC(c) {
		d.report(Race{Kind: WriteRead, Var: e.Target, Access: e, PrevTid: s.wTid, PrevLoc: s.wLoc})
	}
	if s.shared {
		s.rvc = s.rvc.Set(int(t), c[t])
	} else if s.r == vc.NoEpoch || s.r.LeqVC(c) {
		// Exclusive read that supersedes the previous one.
		s.r = ep
	} else {
		// Concurrent reads: inflate to a read vector.
		s.rvc = d.carve(int(t) + 1)
		s.rvc = s.rvc.Set(s.r.Tid(), s.r.Clock())
		s.rvc = s.rvc.Set(int(t), c[t])
		s.r = vc.NoEpoch
		s.shared = true
	}
	s.rTid = t
	s.rLoc = e.Loc
}

// write applies FastTrack's write rules.
func (d *Detector) write(e trace.Event) {
	t := e.Tid
	c := d.clock(t)
	s := d.vs(e.Target)
	ep := vc.MakeEpoch(int(t), c[t])

	if !s.shared && s.w == ep {
		// Same-epoch write fast path, the mirror of the read one: a repeat
		// write by the same thread with no intervening release needs no
		// checks (they were performed at the first write of this epoch, and
		// exclusive state rules out unchecked concurrent reads).
		d.fastHits++
		return
	}
	if !s.w.LeqVC(c) {
		d.report(Race{Kind: WriteWrite, Var: e.Target, Access: e, PrevTid: s.wTid, PrevLoc: s.wLoc})
	}
	if s.shared {
		if !s.rvc.Leq(c) {
			d.report(Race{Kind: ReadWrite, Var: e.Target, Access: e, PrevTid: s.rTid, PrevLoc: s.rLoc})
		}
		// Shared reads are cleared after a write (FastTrack's WRITE SHARED).
		s.shared = false
		s.rvc = nil
		s.r = vc.NoEpoch
	} else if !s.r.LeqVC(c) {
		d.report(Race{Kind: ReadWrite, Var: e.Target, Access: e, PrevTid: s.rTid, PrevLoc: s.rLoc})
	}
	s.w = ep
	s.wTid = t
	s.wLoc = e.Loc
}

func (d *Detector) report(r Race) {
	d.lastRaced = true
	if rp := d.racy.At(r.Var); !*rp {
		*rp = true
		d.racyN++
		d.onsets = append(d.onsets, varOnset{v: r.Var, idx: r.Access.Idx})
	}
	if !d.seen.Add(r) {
		return
	}
	d.races = append(d.races, r)
}

// FlightName names the detector's batch spans in flight recordings; it
// implements sched.FlightNamed.
func (d *Detector) FlightName() string { return "fasttrack" }

// ObserveBatch processes one batch of events in trace order; it implements
// sched.Observer. The loop body is a direct (devirtualized) call, so the
// interface dispatch is paid once per batch, and the detector's paged
// state stays cache-resident across it.
//
// FastTrack's same-epoch rule — a repeat access by the last accessor with
// no intervening release — needs no checks at all, so it retires inline on
// a non-allocating probe, mirroring read/write's fast path without the two
// call frames. Probe misses and epoch changes fall through to Event.
func (d *Detector) ObserveBatch(batch []trace.Event) {
	for i := range batch {
		e := batch[i]
		if e.Op == trace.OpRead || e.Op == trace.OpWrite {
			if ti := int(e.Tid); ti < len(d.threads) {
				if c := d.threads[ti]; c != nil {
					if s := d.vars.Probe(e.Target); s != nil && s.live && !s.shared {
						ep := vc.MakeEpoch(ti, c[ti])
						if e.Op == trace.OpRead && s.r == ep || e.Op == trace.OpWrite && s.w == ep {
							d.events++
							d.accesses++
							d.fastHits++
							d.lastRaced = false
							continue
						}
					}
				}
			}
		}
		d.Event(e)
	}
}

// LastRaced reports whether the most recently processed event was a racy
// access. The online mover classifier consults this after each access.
func (d *Detector) LastRaced() bool { return d.lastRaced }

// Races returns the deduplicated race reports in detection order.
func (d *Detector) Races() []Race { return d.races }

// RacyVars returns the ids of variables involved in at least one race, in
// ascending order.
func (d *Detector) RacyVars() []uint64 {
	out := make([]uint64, d.racyN)
	for i := range out {
		out[i] = d.onsets[i].v
	}
	slices.Sort(out)
	return out
}

// IsRacyVar reports whether variable x has raced so far.
func (d *Detector) IsRacyVar(x uint64) bool {
	p := d.racy.Probe(x)
	return p != nil && *p
}

// Events returns the number of events processed.
func (d *Detector) Events() int { return d.events }

// Analyze runs a fresh detector over a complete trace and returns it.
func Analyze(tr *trace.Trace) *Detector {
	d := New()
	d.analyze(tr)
	return d
}

// analyze feeds d a complete trace and publishes its metrics.
func (d *Detector) analyze(tr *trace.Trace) {
	d.HintEvents(tr.Len())
	for _, e := range tr.Events {
		d.Event(e)
	}
	d.FlushMetrics()
}

// pool holds the detectors RacyVarsOf reuses.
var pool = sync.Pool{New: func() any { return New() }}

// RacyVarsOf returns the racy-variable set of a trace, as a map. It needs
// no detector afterwards, so it runs one taken from a pool and puts it
// back, reset, once the set is copied out: a caller that analyzes one
// short trace per explored schedule allocates the detector's tables once,
// not once per schedule. The set and the checker.race.* counts are those
// of a fresh detector.
func RacyVarsOf(tr *trace.Trace) map[uint64]bool {
	d := pool.Get().(*Detector)
	d.analyze(tr)
	out := d.RacyVarSet()
	if d.reset() {
		pool.Put(d)
	}
	return out
}

// reset returns d to the state New leaves it in, keeping its tables,
// arena, and buffers, and reports whether it did. Clearing costs about
// what the last trace touched: each table zeroes only its slots below the
// largest key the trace wrote (dense.Table.Clear), and the arena and
// thread clocks only what the trace used. A detector that a large trace
// grew past a table's first page, a page's worth of overflow keys or race
// reports, or the first arena block is still left as it is, for the
// caller to drop, so the pool never holds large tables.
func (d *Detector) reset() bool {
	small := func(pages, overflow int) bool { return pages <= 1 && overflow <= dense.PageSize }
	if !small(d.vars.Footprint()) || !small(d.sync.Footprint()) || !small(d.racy.Footprint()) ||
		len(d.seen.entries) > dense.PageSize || cap(d.arena) > arenaBlock {
		return false
	}
	clear(d.threads)
	clear(d.arena)
	d.sync.Clear()
	d.vars.Clear()
	d.racy.Clear()
	d.seen.reset()
	*d = Detector{
		threads: d.threads[:0],
		sync:    d.sync,
		vars:    d.vars,
		races:   d.races[:0],
		seen:    d.seen,
		racy:    d.racy,
		onsets:  d.onsets[:0],
		arena:   d.arena[:0],
	}
	return true
}

// varOnset pairs a racy variable with the event index of its first race.
type varOnset struct {
	v   uint64
	idx int
}

// RaceOnsets returns, for every racy variable, the event index at which it
// first raced. Feeding this to movers.NewWithRaceOnsets reproduces the
// exact racy-knowledge an *online* detector had at each point of the
// stream — Atomizer's classification mode — without running a second
// detector alongside the consumer.
func (d *Detector) RaceOnsets() map[uint64]int {
	out := make(map[uint64]int, len(d.onsets))
	for _, o := range d.onsets {
		out[o.v] = o.idx
	}
	return out
}

// RacyVarSet returns the racy-variable set as a map — the form
// core.Options.KnownRaces consumes. For a detector that has consumed a full
// trace this equals RacyVarsOf of that trace, which lets the fused pipeline
// reuse its first-pass detector instead of race-detecting the trace again.
func (d *Detector) RacyVarSet() map[uint64]bool {
	out := make(map[uint64]bool, d.racyN)
	for _, o := range d.onsets {
		out[o.v] = true
	}
	return out
}
