package sched

import (
	"repro/internal/trace"
)

// T is the handle a virtual thread uses for every instrumented operation.
// All shared-state interaction in a workload must go through T; plain Go
// variables inside a Proc are thread-local.
//
// Every op records its call site with the capturePC/emitPC pair: capturePC
// inlines into the op body so the stack unwind never walks more than two
// physical frames (see capturePC in runtime.go). The pcs buffer lives in
// the op's frame and is reused across multiple emits in the same op.
type T struct {
	rt *Runtime
	t  *thread
}

// ID returns the thread's id.
func (x *T) ID() trace.TID { return x.t.id }

// Name returns the thread's diagnostic name.
func (x *T) Name() string { return x.t.name }

// At overrides location capture for every subsequent op this thread
// emits: events carry loc (the runtime's "dir/file.go:line" format)
// instead of the Go call site resolved from the PC. The override is
// sticky until the next At call; At("") restores PC capture. Translated
// programs (internal/cooptrans) set it before each interpreted operation
// so findings read in the original source's coordinates. Returns the
// receiver for chaining: t.At("pkg/file.go:12").Acquire(mu).
func (x *T) At(loc string) *T {
	if loc == "" {
		x.t.locOverride = locNone
		return x
	}
	_, x.t.locOverride = x.rt.locs.intern(x.rt.strings, loc)
	return x
}

// Handle identifies a forked thread for joining.
type Handle struct {
	tid trace.TID
}

// TID returns the forked thread's id.
func (h Handle) TID() trace.TID { return h.tid }

// Fork starts a new virtual thread running fn and returns its handle.
func (x *T) Fork(name string, fn Proc) Handle {
	rt := x.rt
	child := rt.spawn(name, fn)
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpFork, uint64(child.id), pcs[0])
	return Handle{tid: child.id}
}

// Join blocks until the thread behind h terminates.
func (x *T) Join(h Handle) {
	rt := x.rt
	child := rt.threads[h.tid]
	for child.state != stateDone {
		rt.blockOn(x.t, waitJoin, uint64(h.tid))
	}
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpJoin, uint64(h.tid), pcs[0])
}

// Read returns the current value of a plain shared variable.
func (x *T) Read(v *Var) int64 {
	val := x.rt.vals[v.id]
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpRead, v.id, pcs[0])
	return val
}

// Write stores val into a plain shared variable.
func (x *T) Write(v *Var, val int64) {
	x.rt.vals[v.id] = val
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpWrite, v.id, pcs[0])
}

// VolRead returns the current value of a volatile variable.
func (x *T) VolRead(v *Volatile) int64 {
	val := x.rt.volVals[v.id]
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpVolRead, v.ID(), pcs[0])
	return val
}

// VolWrite stores val into a volatile variable.
func (x *T) VolWrite(v *Volatile, val int64) {
	x.rt.volVals[v.id] = val
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpVolWrite, v.ID(), pcs[0])
}

// VolAdd atomically adds delta to a volatile variable and returns the new
// value. The read-modify-write is one atomic operation, so it emits a
// single OpVolWrite — mirroring sync/atomic.Add*, whose static model
// (internal/static/ops.go) is likewise one volatile write.
func (x *T) VolAdd(v *Volatile, delta int64) int64 {
	val := x.rt.volVals[v.id] + delta
	x.rt.volVals[v.id] = val
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpVolWrite, v.ID(), pcs[0])
	return val
}

// VolCAS atomically compares-and-swaps a volatile variable. Like VolAdd it
// emits a single OpVolWrite whether or not the swap happens: a failed CAS
// still synchronizes (it is an RMW on real hardware), and modeling both
// outcomes identically keeps traces deterministic across value histories.
func (x *T) VolCAS(v *Volatile, old, new int64) bool {
	swapped := x.rt.volVals[v.id] == old
	if swapped {
		x.rt.volVals[v.id] = new
	}
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpVolWrite, v.ID(), pcs[0])
	return swapped
}

// WgAdd adds delta (which may be negative) to the barrier's counter,
// waking group waiters when it reaches zero. The whole read-modify-write
// is one volatile write event, exactly the static model of
// sync.WaitGroup.Add. A negative counter aborts the run (a workload bug,
// as in sync).
func (x *T) WgAdd(w *WaitGroup, delta int64) {
	rt := x.rt
	val := rt.volVals[w.v.id] + delta
	if val < 0 {
		rt.fail("T%d drops group %s counter below zero", x.t.id, w.v.name)
	}
	rt.volVals[w.v.id] = val
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpVolWrite, w.v.ID(), pcs[0])
	if val == 0 {
		rt.wake(waitGroup, w.v.id)
	}
}

// WgDone lowers the barrier's counter by one.
func (x *T) WgDone(w *WaitGroup) { x.WgAdd(w, -1) }

// WgWait blocks until the barrier's counter is zero. The release traces
// as a single target-less OpSelect — a pure scheduling boundary, like the
// static model's treatment of sync.WaitGroup.Wait. It deliberately emits
// no lock or volatile op: a barrier provides ordering for the scheduler,
// not mutual exclusion, and OpWait's trace validity rule (the target lock
// must be held) rules that op out for a lock-free wait.
func (x *T) WgWait(w *WaitGroup) {
	rt := x.rt
	for rt.volVals[w.v.id] != 0 {
		rt.blockOn(x.t, waitGroup, w.v.id)
	}
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpSelect, 0, pcs[0])
}

// Acquire takes the lock, blocking while another thread holds it. Locks are
// reentrant (Java monitor semantics).
func (x *T) Acquire(m *Mutex) {
	rt := x.rt
	ms := &rt.mus[m.id]
	var pcs [1]uintptr
	if ms.owner == x.t.id {
		ms.depth++
		rt.capturePC(&pcs)
		rt.emitPC(x.t, trace.OpAcquire, m.id, pcs[0])
		return
	}
	for ms.owner != -1 {
		rt.blockOn(x.t, waitLock, m.id)
	}
	ms.owner = x.t.id
	ms.depth = 1
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpAcquire, m.id, pcs[0])
}

// Release drops one level of the lock. Releasing a lock the thread does not
// hold aborts the run with an error (a workload bug).
func (x *T) Release(m *Mutex) {
	rt := x.rt
	ms := &rt.mus[m.id]
	if ms.owner != x.t.id {
		rt.fail("T%d releases lock %s it does not hold", x.t.id, m.name)
	}
	ms.depth--
	if ms.depth == 0 {
		ms.owner = -1
		rt.wake(waitLock, m.id)
	}
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpRelease, m.id, pcs[0])
}

// WithLock runs fn while holding m.
func (x *T) WithLock(m *Mutex, fn func()) {
	x.Acquire(m)
	defer x.Release(m)
	fn()
}

// Yield is the cooperability annotation: it marks a point where the
// programmer acknowledges possible interference. Under cooperative
// scheduling it is (with blocking operations) the only context-switch point.
func (x *T) Yield() {
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpYield, 0, pcs[0])
}

// Wait atomically releases c's mutex and blocks until notified, then
// reacquires the mutex before returning. The trace records the release half
// as an OpWait event (a yield point) and the reacquisition as a normal
// OpAcquire, preserving exact happens-before structure for the analyses.
// The calling thread must hold the mutex with depth 1 or more.
func (x *T) Wait(c *Cond) {
	rt := x.rt
	m := c.mutex
	ms := &rt.mus[m.id]
	if ms.owner != x.t.id {
		rt.fail("T%d waits on %s without holding lock %s", x.t.id, c.name, m.name)
	}
	savedDepth := ms.depth
	// Enqueue before publishing the release so a notifier that runs during
	// the emit's preemption window can see us.
	cs := &rt.conds[c.id]
	cs.queue = append(cs.queue, x.t.id)
	x.t.signaled = false
	ms.owner = -1
	ms.depth = 0
	rt.wake(waitLock, m.id)
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpWait, m.id, pcs[0])
	for !x.t.signaled {
		rt.blockOn(x.t, waitCond, c.id)
	}
	x.t.signaled = false
	for ms.owner != -1 {
		rt.blockOn(x.t, waitLock, m.id)
	}
	ms.owner = x.t.id
	ms.depth = savedDepth
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpAcquire, m.id, pcs[0])
}

// Signal wakes the longest-waiting thread on c, if any. The caller must
// hold c's mutex.
func (x *T) Signal(c *Cond) {
	x.notify(c, false)
}

// Broadcast wakes every thread waiting on c. The caller must hold c's mutex.
func (x *T) Broadcast(c *Cond) {
	x.notify(c, true)
}

func (x *T) notify(c *Cond, all bool) {
	rt := x.rt
	ms := &rt.mus[c.mutex.id]
	if ms.owner != x.t.id {
		rt.fail("T%d notifies %s without holding lock %s", x.t.id, c.name, c.mutex.name)
	}
	cs := &rt.conds[c.id]
	n := len(cs.queue)
	if !all && n > 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		tid := cs.queue[i]
		w := rt.threads[tid]
		w.signaled = true
		if w.state == stateBlocked && w.waitOn == waitCond {
			w.state = stateRunnable
		}
	}
	cs.queue = cs.queue[n:]
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpNotify, c.mutex.id, pcs[0])
}

// Call runs fn as a named method span, emitting enter/exit events. Spans
// are what the per-method yield statistics (Table 2) are computed over.
func (x *T) Call(method string, fn func()) {
	rt := x.rt
	mid, ok := rt.methodIDs[method]
	if !ok {
		mid = uint64(len(rt.symbols.Methods))
		rt.methodIDs[method] = mid
		rt.symbols.Methods = append(rt.symbols.Methods, method)
	}
	var pcs [1]uintptr
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpEnter, mid, pcs[0])
	fn()
	rt.capturePC(&pcs)
	rt.emitPC(x.t, trace.OpExit, mid, pcs[0])
}

// Atomic runs fn inside a programmer-specified atomic block. These events
// drive the atomicity-checker baseline only; cooperability ignores them.
func (x *T) Atomic(fn func()) {
	var pcs [1]uintptr
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpAtomicBegin, 0, pcs[0])
	fn()
	x.rt.capturePC(&pcs)
	x.rt.emitPC(x.t, trace.OpAtomicEnd, 0, pcs[0])
}
