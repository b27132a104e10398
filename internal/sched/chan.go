package sched

import (
	"fmt"

	"repro/internal/trace"
)

// Channel runtime model. Channels follow Go semantics on a unified
// buffered/unbuffered state (the hchan shape): a FIFO ring of at most cap
// values plus a FIFO of pending senders whose values have been *offered*
// but not yet accepted. An unbuffered channel is the cap=0 case — every
// send is an offer that parks until a receiver takes it (rendezvous).
//
// Event protocol: OpSend is emitted when the value is offered (enqueued in
// the buffer or the pending FIFO), OpRecv when a value (or the closed-empty
// zero) is taken, OpClose at close. Offers precede takes in trace order, so
// the send→recv release/acquire edge is visible to every happens-before
// analysis without lookahead. OpSelect is emitted when a select commits,
// before the committed communication's own event.
//
// Blocking uses the runtime's check-then-park discipline: exactly one
// virtual thread runs at a time, so a failed attempt followed by blockOn is
// atomic, and wakers only flip parked threads back to runnable — woken
// threads re-attempt and may re-park (wake-and-race). The one asymmetry is
// a parked sender: its wake conditions are precise (its offer was accepted,
// or the channel closed), checked by scanning the pending FIFO.
type chanState struct {
	cap     int
	buf     []int64       // accepted values, FIFO (len <= cap)
	pending []pendingSend // offered values awaiting acceptance, FIFO
	closed  bool
}

type pendingSend struct {
	tid trace.TID
	val int64
}

// target returns the composite trace Target for channel id (see
// trace.ChanTarget).
func (rt *Runtime) chanTarget(id uint64) uint64 {
	return trace.ChanTarget(id, rt.chs[id].cap == 0)
}

// chanRef validates a channel handle against the running program.
func (rt *Runtime) chanRef(c *Chan) *chanState {
	if c == nil || c.id >= uint64(len(rt.chs)) {
		rt.fail("operation on undeclared channel")
	}
	return &rt.chs[c.id]
}

// tryRecvChan attempts one non-blocking receive step on channel id.
// done=false means the receive would block. On success the state mutation
// is complete (value dequeued, unblocked sender woken) but no event has
// been emitted — the caller emits OpRecv so select can interpose its
// OpSelect first.
func (rt *Runtime) tryRecvChan(id uint64) (val int64, ok, done bool) {
	ch := &rt.chs[id]
	if len(ch.buf) > 0 {
		val = ch.buf[0]
		copy(ch.buf, ch.buf[1:])
		ch.buf = ch.buf[:len(ch.buf)-1]
		// A freed slot accepts the longest-waiting offer. Skipped when the
		// channel is closed: Go never delivers values from senders that
		// were still blocked at close time (they panic instead).
		if len(ch.pending) > 0 && !ch.closed {
			ps := ch.pending[0]
			ch.pending = ch.pending[1:]
			ch.buf = append(ch.buf, ps.val)
			rt.wakeChanSender(ps.tid)
		}
		rt.wakeChanSelectWaiters(id)
		return val, true, true
	}
	if len(ch.pending) > 0 && !ch.closed {
		// Rendezvous: take the offer directly (cap must be 0 here — a
		// buffered channel with free space accepts offers eagerly).
		ps := ch.pending[0]
		ch.pending = ch.pending[1:]
		rt.wakeChanSender(ps.tid)
		rt.wakeChanSelectWaiters(id)
		return ps.val, true, true
	}
	if ch.closed {
		return 0, false, true
	}
	return 0, false, false
}

// offerSend enqueues a value on channel id: into the buffer when there is
// room (the send completes immediately), else onto the pending FIFO (the
// sender must park until the offer is accepted). It wakes receive-side
// waiters either way and reports whether the sender can continue.
func (rt *Runtime) offerSend(t *thread, id uint64, val int64) (immediate bool) {
	ch := &rt.chs[id]
	if ch.closed {
		rt.fail("T%d sends on closed channel %s", t.id, rt.symbols.ChanName(id))
	}
	if len(ch.buf) < ch.cap {
		ch.buf = append(ch.buf, val)
		immediate = true
	} else {
		ch.pending = append(ch.pending, pendingSend{tid: t.id, val: val})
	}
	rt.wake(waitChanRecv, id)
	rt.wakeChanSelectWaiters(id)
	return immediate
}

// awaitOfferAccepted parks the sender until its offer on channel id leaves
// the pending FIFO (accepted by a receiver or a freed buffer slot) or the
// channel closes underneath it, which is a fatal workload bug in Go.
func (rt *Runtime) awaitOfferAccepted(t *thread, id uint64) {
	ch := &rt.chs[id]
	for {
		if !pendingHas(ch, t.id) {
			return
		}
		if ch.closed {
			rt.fail("T%d sends on closed channel %s (closed while blocked)", t.id, rt.symbols.ChanName(id))
		}
		rt.blockOn(t, waitChanSend, id)
	}
}

func pendingHas(ch *chanState, tid trace.TID) bool {
	for i := range ch.pending {
		if ch.pending[i].tid == tid {
			return true
		}
	}
	return false
}

// wakeChanSender unparks one sender whose offer was just accepted. A
// sender that has offered but not yet parked is still runnable; its
// awaitOfferAccepted loop re-checks the FIFO, so the no-op is safe.
func (rt *Runtime) wakeChanSender(tid trace.TID) {
	t := rt.threads[tid]
	if t.state == stateBlocked && t.waitOn == waitChanSend {
		t.state = stateRunnable
	}
}

// wakeChanSelectWaiters unparks every select watching channel id; woken
// selects re-evaluate readiness and may re-park.
func (rt *Runtime) wakeChanSelectWaiters(id uint64) {
	for _, t := range rt.threads {
		if t.state != stateBlocked || t.waitOn != waitChanSelect {
			continue
		}
		for _, w := range t.selWatch {
			if w == id {
				t.state = stateRunnable
				break
			}
		}
	}
}

// Send sends val on c, blocking per Go semantics: immediately completing
// while the buffer has room, otherwise parking until a receiver accepts
// the offered value. Sending on a closed channel aborts the run (the
// workload bug Go punishes with a panic).
func (x *T) Send(c *Chan, val int64) {
	rt := x.rt
	rt.chanRef(c)
	rt.chanSends++
	immediate := rt.offerSend(x.t, c.id, val)
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpSend, rt.chanTarget(c.id), pcs[0])
	if !immediate {
		rt.awaitOfferAccepted(x.t, c.id)
	}
}

// Recv receives from c, blocking until a value is available. ok is false
// iff the channel is closed and drained (the Go "comma ok" form); the
// value is then 0.
func (x *T) Recv(c *Chan) (int64, bool) {
	rt := x.rt
	rt.chanRef(c)
	rt.chanRecvs++
	var val int64
	var ok bool
	for {
		v, o, done := rt.tryRecvChan(c.id)
		if done {
			val, ok = v, o
			break
		}
		rt.blockOn(x.t, waitChanRecv, c.id)
	}
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpRecv, rt.chanTarget(c.id), pcs[0])
	return val, ok
}

// Close closes c. Further sends abort the run; receives drain the buffer
// and then return (0, false). Close is a broadcast release: every parked
// receiver and select on c wakes, and senders parked mid-offer abort (as
// in Go, where close panics them).
func (x *T) Close(c *Chan) {
	rt := x.rt
	ch := rt.chanRef(c)
	if ch.closed {
		rt.fail("T%d closes already-closed channel %s", x.t.id, c.name)
	}
	rt.chanCloses++
	ch.closed = true
	rt.wake(waitChanRecv, c.id)
	rt.wake(waitChanSend, c.id)
	rt.wakeChanSelectWaiters(c.id)
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpClose, rt.chanTarget(c.id), pcs[0])
}

// SelectCase is one arm of a Select: a send of Val on Ch, or a receive
// from Ch. Build with SendCase/RecvCase.
type SelectCase struct {
	Ch   *Chan
	Val  int64
	Send bool
}

// SendCase returns a select arm that sends val on c.
func SendCase(c *Chan, val int64) SelectCase { return SelectCase{Ch: c, Val: val, Send: true} }

// RecvCase returns a select arm that receives from c.
func RecvCase(c *Chan) SelectCase { return SelectCase{Ch: c} }

// Select blocks until one of the cases can proceed and commits it,
// returning the committed case index and, for receive cases, the received
// value and ok flag (send cases return 0, true). When several cases are
// ready the decision is a scheduler choice point: strategies implementing
// SelectChooser pick the case (and exploration strategies enumerate the
// alternatives); others commit the lowest ready index.
func (x *T) Select(cases ...SelectCase) (int, int64, bool) {
	// Capture here, not in selectImpl: the PC must be the workload's call
	// site, one frame above the shared implementation.
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	return x.selectImpl(cases, false, pcs[0])
}

// SelectDefault is Select with a default arm: when no case is ready it
// commits the default immediately, returning index -1. This is the
// building block for non-blocking polls (Go's `select { ... default: }`).
func (x *T) SelectDefault(cases ...SelectCase) (int, int64, bool) {
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	return x.selectImpl(cases, true, pcs[0])
}

func (x *T) selectImpl(cases []SelectCase, hasDefault bool, pc uintptr) (int, int64, bool) {
	rt := x.rt
	if len(cases) == 0 {
		if hasDefault {
			rt.chanSelects++
			rt.emitPC(x.t, trace.OpSelect, trace.ChanNone, pc)
			return -1, 0, false
		}
		// select{} blocks forever; with no cases to watch this is an
		// immediate deadlock of this thread.
		rt.blockOn(x.t, waitChanSelect, 0)
		rt.fail("T%d resumed from empty select", x.t.id)
	}
	for i := range cases {
		rt.chanRef(cases[i].Ch)
	}
	var ready []int
	for {
		ready = ready[:0]
		for i := range cases {
			if rt.selectCaseReady(&cases[i]) {
				ready = append(ready, i)
			}
		}
		if len(ready) > 0 {
			break
		}
		if hasDefault {
			rt.chanSelects++
			rt.emitPC(x.t, trace.OpSelect, trace.ChanNone, pc)
			return -1, 0, false
		}
		x.t.selWatch = x.t.selWatch[:0]
		for i := range cases {
			x.t.selWatch = append(x.t.selWatch, cases[i].Ch.id)
		}
		rt.blockOn(x.t, waitChanSelect, 0)
		x.t.selWatch = x.t.selWatch[:0]
	}

	// The commit decision is a scheduler choice point, consulted on every
	// committing select (even single-ready ones) so guided replays consume
	// the decision stream deterministically.
	idx := ready[0]
	if ch, okc := rt.strat.(SelectChooser); okc {
		picked := ch.Choose(ready)
		if !containsInt(ready, picked) {
			rt.err = fmt.Errorf("%w: strategy %s chose select case %d; ready %v",
				ErrReplayDiverged, rt.strat.Name(), picked, ready)
			panic(errKilled)
		}
		idx = picked
	}
	rt.choices = append(rt.choices, idx)
	rt.chanSelects++

	// Commit the chosen case's state mutation *before* emitting anything:
	// emission opens a preemption window, and Go's select readiness check
	// and commit are atomic.
	c := &cases[idx]
	var val int64
	var ok bool
	var awaitSend bool
	if c.Send {
		ok = true
		if !rt.offerSend(x.t, c.Ch.id, c.Val) {
			awaitSend = true
		}
		rt.chanSends++
	} else {
		var done bool
		val, ok, done = rt.tryRecvChan(c.Ch.id)
		if !done {
			rt.fail("T%d select committed unready receive on %s", x.t.id, c.Ch.name)
		}
		rt.chanRecvs++
	}
	rt.emitPC(x.t, trace.OpSelect, rt.chanTarget(c.Ch.id), pc)
	if c.Send {
		rt.emitPC(x.t, trace.OpSend, rt.chanTarget(c.Ch.id), pc)
		if awaitSend {
			rt.awaitOfferAccepted(x.t, c.Ch.id)
		}
	} else {
		rt.emitPC(x.t, trace.OpRecv, rt.chanTarget(c.Ch.id), pc)
	}
	return idx, val, ok
}

// selectCaseReady evaluates one arm's readiness under the current state.
func (rt *Runtime) selectCaseReady(c *SelectCase) bool {
	ch := &rt.chs[c.Ch.id]
	if c.Send {
		// A closed channel makes the send case "ready" — committing it
		// reproduces Go's send-on-closed panic rather than blocking forever.
		// An unbuffered send is ready when a plain receive is parked on the
		// channel; a parked select's receive case does not count, since
		// select-to-select rendezvous is a documented modeling restriction.
		return ch.closed || len(ch.buf) < ch.cap || rt.waiting(waitChanRecv, c.Ch.id)
	}
	return len(ch.buf) > 0 || (len(ch.pending) > 0 && !ch.closed) || ch.closed
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
