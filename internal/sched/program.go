// Package sched provides the deterministic virtual-thread runtime the rest
// of the module is built on.
//
// The paper's dynamic analysis instruments Java bytecode via RoadRunner and
// observes the JVM's preemptive scheduler. Go exposes no equivalent hooks
// into its goroutine scheduler, so this package substitutes a *virtual*
// scheduler: workloads are written against an explicit runtime API (shared
// variables, locks, condition variables, fork/join, yield), exactly one
// virtual thread runs at a time, and a pluggable Strategy decides where
// context switches happen. The result is the same artifact RoadRunner
// produces — a total order of instrumented events — plus capabilities the
// JVM cannot offer: seeded schedules, exact replay, and bounded exhaustive
// exploration.
//
// Virtual threads are real goroutines coordinated by a baton handoff, so
// workload code keeps natural Go control flow (loops, closures, recursion)
// while execution remains fully deterministic for a fixed strategy and seed.
package sched

import "fmt"

// Proc is the body of a virtual thread. It runs with natural Go control
// flow but must perform all shared-state interaction through t.
type Proc func(t *T)

// Program is a static description of a concurrent workload: its shared
// objects and its main thread. A Program is immutable once built and may be
// run many times concurrently; all mutable state lives in the per-run
// Runtime.
type Program struct {
	name string
	main Proc
	// The declared names by id, as Symbols holds them: each run's Symbols
	// views them, capped so that an append to a view copies.
	vars, volatiles, mutexes, chans []string
	// varInits and volInits are the declared initial values.
	varInits, volInits []int64
	conds              []condDef
	chanCaps           []int
}

type condDef struct {
	name  string
	mutex *Mutex
}

// NewProgram returns an empty program with the given diagnostic name.
func NewProgram(name string) *Program {
	return &Program{name: name}
}

// Name returns the program's diagnostic name.
func (p *Program) Name() string { return p.name }

// SetMain installs the body of the initial thread (TID 0).
func (p *Program) SetMain(fn Proc) { p.main = fn }

// Var declares a plain (unsynchronized) shared int64 variable.
func (p *Program) Var(name string) *Var {
	p.vars = append(p.vars, name)
	p.varInits = append(p.varInits, 0)
	return &Var{id: uint64(len(p.vars) - 1), name: name}
}

// VarInit declares a plain shared variable with a non-zero initial value.
// The initial value is pre-run state, not an event: runs start with the
// variable already set and no write appears in the trace — the shape of a
// package-level initializer in translated source.
func (p *Program) VarInit(name string, init int64) *Var {
	v := p.Var(name)
	p.varInits[v.id] = init
	return v
}

// Vars declares n variables named prefix0..prefix{n-1}, for array-like
// shared state (matrix rows, per-bucket slots, ...).
func (p *Program) Vars(prefix string, n int) []*Var {
	out := make([]*Var, n)
	for i := range out {
		out[i] = p.Var(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// Volatile declares a volatile shared int64 variable. Volatile accesses are
// synchronization operations: they never race, but they are interference
// points for cooperability.
func (p *Program) Volatile(name string) *Volatile {
	p.volatiles = append(p.volatiles, name)
	p.volInits = append(p.volInits, 0)
	return &Volatile{id: uint64(len(p.volatiles) - 1), name: name}
}

// VolatileInit declares a volatile variable with a non-zero initial
// value; like VarInit, the initial value produces no event.
func (p *Program) VolatileInit(name string, init int64) *Volatile {
	v := p.Volatile(name)
	p.volInits[v.id] = init
	return v
}

// Mutex declares a reentrant lock (Java monitor semantics).
func (p *Program) Mutex(name string) *Mutex {
	p.mutexes = append(p.mutexes, name)
	return &Mutex{id: uint64(len(p.mutexes) - 1), name: name}
}

// Mutexes declares n locks named prefix0..prefix{n-1}.
func (p *Program) Mutexes(prefix string, n int) []*Mutex {
	out := make([]*Mutex, n)
	for i := range out {
		out[i] = p.Mutex(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// Cond declares a condition variable guarded by m.
func (p *Program) Cond(name string, m *Mutex) *Cond {
	p.conds = append(p.conds, condDef{name: name, mutex: m})
	return &Cond{id: uint64(len(p.conds) - 1), name: name, mutex: m}
}

// Chan declares a channel of int64 values with the given capacity
// (0 = unbuffered rendezvous, Go semantics). Channel events carry a
// composite Target — trace.ChanTarget(id, capacity==0) — so offline
// analyses can see buffering without re-running the program.
func (p *Program) Chan(name string, capacity int) *Chan {
	if capacity < 0 {
		panic(fmt.Sprintf("sched: channel %q has negative capacity %d", name, capacity))
	}
	p.chans = append(p.chans, name)
	p.chanCaps = append(p.chanCaps, capacity)
	return &Chan{id: uint64(len(p.chans) - 1), name: name, cap: capacity}
}

// Chans declares n channels named prefix0..prefix{n-1}, all with the same
// capacity.
func (p *Program) Chans(prefix string, n, capacity int) []*Chan {
	out := make([]*Chan, n)
	for i := range out {
		out[i] = p.Chan(fmt.Sprintf("%s%d", prefix, i), capacity)
	}
	return out
}

// WaitGroup declares a fork-join barrier: a counter threads raise and
// lower with WgAdd/WgDone and a blocking WgWait that releases when it
// hits zero. The counter is stored as a hidden volatile, so WgAdd/WgDone
// trace as single volatile writes and the barrier never introduces
// guard-grade synchronization — matching the static pass's abstract
// model of sync.WaitGroup, which translated programs lower onto this
// primitive.
func (p *Program) WaitGroup(name string) *WaitGroup {
	return &WaitGroup{v: p.Volatile(name)}
}

// Var is a handle to a plain shared variable.
type Var struct {
	id   uint64
	name string
}

// ID returns the variable's dense id (the trace Target for its accesses).
func (v *Var) ID() uint64 { return v.id }

// Name returns the declared name.
func (v *Var) Name() string { return v.name }

// Volatile is a handle to a volatile shared variable. Volatile ids share
// the plain-variable id space offset by volatileBase so traces can carry
// both in one Target namespace.
type Volatile struct {
	id   uint64
	name string
}

// volatileBase offsets volatile variable ids away from plain variable ids
// within trace Target values.
const volatileBase = 1 << 32

// ID returns the trace Target for this volatile's accesses.
func (v *Volatile) ID() uint64 { return volatileBase + v.id }

// Name returns the declared name.
func (v *Volatile) Name() string { return v.name }

// Mutex is a handle to a reentrant lock.
type Mutex struct {
	id   uint64
	name string
}

// ID returns the lock's dense id (the trace Target for its lock ops).
func (m *Mutex) ID() uint64 { return m.id }

// Name returns the declared name.
func (m *Mutex) Name() string { return m.name }

// Cond is a handle to a condition variable tied to a Mutex.
type Cond struct {
	id    uint64
	name  string
	mutex *Mutex
}

// Name returns the declared name.
func (c *Cond) Name() string { return c.name }

// Mutex returns the guarding lock.
func (c *Cond) Mutex() *Mutex { return c.mutex }

// WaitGroup is a handle to a fork-join barrier (see Program.WaitGroup).
type WaitGroup struct {
	v *Volatile
}

// Name returns the declared name.
func (w *WaitGroup) Name() string { return w.v.name }

// Counter returns the underlying volatile carrying the count, whose ID is
// the trace Target of the barrier's add/done writes.
func (w *WaitGroup) Counter() *Volatile { return w.v }

// Chan is a handle to a declared channel.
type Chan struct {
	id   uint64
	name string
	cap  int
}

// ID returns the channel's dense id.
func (c *Chan) ID() uint64 { return c.id }

// Name returns the declared name.
func (c *Chan) Name() string { return c.name }

// Cap returns the declared capacity (0 = unbuffered).
func (c *Chan) Cap() int { return c.cap }
