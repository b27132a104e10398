// Package lockorder implements a GoodLock-style potential-deadlock
// analysis (Havelund, SPIN 2000; refined by Bensalem & Havelund): it builds
// the lock-order graph of an execution — an edge l1→l2 whenever some
// thread acquires l2 while holding l1 — and reports a *potential* deadlock
// for every cycle, even when no schedule in the battery actually
// deadlocked. It complements the scheduler's waits-for detector (which
// only fires on a manifested deadlock) the same way cooperability
// complements stress testing: the warning is schedule-independent.
//
// Gate locks are respected: if every edge of a cycle was taken while some
// common lock was held, the cycle cannot close at runtime and is reported
// as guarded (suppressed by default, visible via Warnings' Guarded field).
package lockorder

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// edge is one observed nested acquisition l1 -> l2.
type edge struct {
	from, to uint64
}

type edgeInfo struct {
	// guards is the intersection of lock sets held (besides from) across
	// all instances of this edge; a non-empty intersection can gate the
	// cycle.
	guards map[uint64]bool
	// tids is the set of threads that took the edge.
	tids map[trace.TID]bool
	// loc is a representative source location of the inner acquire.
	loc trace.LocID
}

// Warning reports one lock-order cycle.
type Warning struct {
	// Cycle is the lock ids in order (first repeated implicitly).
	Cycle []uint64
	// Guarded is true when a common gate lock protects every edge, making
	// the runtime deadlock impossible (GoodLock's false-positive filter).
	Guarded bool
	// SingleThread is true when one thread alone produced every edge (it
	// cannot deadlock with itself on reentrant locks).
	SingleThread bool
	// Locs are representative inner-acquire locations, one per edge.
	Locs []trace.LocID
}

// String renders the cycle compactly.
func (w Warning) String() string {
	var b strings.Builder
	b.WriteString("lock-order cycle: ")
	for i, l := range w.Cycle {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "lock%d", l)
	}
	fmt.Fprintf(&b, " -> lock%d", w.Cycle[0])
	if w.Guarded {
		b.WriteString(" (gate-guarded: cannot manifest)")
	}
	if w.SingleThread {
		b.WriteString(" (single thread: cannot manifest)")
	}
	return b.String()
}

// Analyzer builds the lock-order graph from a stream of events. It
// implements sched.Observer.
type Analyzer struct {
	held   map[trace.TID][]uint64 // acquisition stacks (with reentrancy)
	depth  map[[2]uint64]int      // (tid, lock) -> depth
	edges  map[edge]*edgeInfo
	events int
}

// New returns an empty analyzer.
func New() *Analyzer {
	return &Analyzer{
		held:  make(map[trace.TID][]uint64),
		depth: make(map[[2]uint64]int),
		edges: make(map[edge]*edgeInfo),
	}
}

// Event processes one event in trace order.
func (a *Analyzer) Event(e trace.Event) {
	a.events++
	key := [2]uint64{uint64(e.Tid), e.Target}
	switch e.Op {
	case trace.OpAcquire:
		if a.depth[key] == 0 {
			for _, outer := range a.held[e.Tid] {
				a.addEdge(e.Tid, outer, e.Target, e.Loc)
			}
			a.held[e.Tid] = append(a.held[e.Tid], e.Target)
		}
		a.depth[key]++
	case trace.OpRelease:
		if a.depth[key] > 0 {
			a.depth[key]--
			if a.depth[key] == 0 {
				a.drop(e.Tid, e.Target)
			}
		}
	case trace.OpWait:
		// Wait releases the guarding lock entirely; the reacquisition
		// arrives as a plain acquire.
		if a.depth[key] > 0 {
			a.depth[key] = 0
			a.drop(e.Tid, e.Target)
		}
	}
}

func (a *Analyzer) drop(t trace.TID, l uint64) {
	s := a.held[t]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == l {
			a.held[t] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

func (a *Analyzer) addEdge(t trace.TID, from, to uint64, loc trace.LocID) {
	if from == to {
		return
	}
	ei := a.edges[edge{from, to}]
	if ei == nil {
		ei = &edgeInfo{guards: nil, tids: map[trace.TID]bool{}, loc: loc}
		// Initial guard set: every other lock held under `from`.
		ei.guards = map[uint64]bool{}
		for _, l := range a.held[t] {
			if l != from && l != to {
				ei.guards[l] = true
			}
		}
		a.edges[edge{from, to}] = ei
	} else {
		// Intersect guards with the currently held set.
		cur := map[uint64]bool{}
		for _, l := range a.held[t] {
			cur[l] = true
		}
		for g := range ei.guards {
			if !cur[g] {
				delete(ei.guards, g)
			}
		}
	}
	ei.tids[t] = true
}

// Warnings returns every elementary cycle of length 2 and 3 in the
// lock-order graph (longer cycles exist in principle but 2-cycles dominate
// real reports; 3-cycles catch hierarchical violations), deduplicated by
// rotation.
func (a *Analyzer) Warnings() []Warning {
	adj := map[uint64][]uint64{}
	for e := range a.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, l := range adj {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	seen := map[string]bool{}
	var out []Warning
	emit := func(cycle []uint64) {
		// Canonical rotation: start at the minimum lock id.
		min := 0
		for i := range cycle {
			if cycle[i] < cycle[min] {
				min = i
			}
		}
		canon := append(append([]uint64{}, cycle[min:]...), cycle[:min]...)
		key := fmt.Sprint(canon)
		if seen[key] {
			return
		}
		seen[key] = true
		w := Warning{Cycle: canon}
		// Guarded: a lock common to ALL edges' guard sets.
		common := map[uint64]bool{}
		first := true
		tids := map[trace.TID]bool{}
		for i := range canon {
			from := canon[i]
			to := canon[(i+1)%len(canon)]
			ei := a.edges[edge{from, to}]
			if ei == nil {
				return // not a real cycle (shouldn't happen)
			}
			w.Locs = append(w.Locs, ei.loc)
			for t := range ei.tids {
				tids[t] = true
			}
			if first {
				for g := range ei.guards {
					common[g] = true
				}
				first = false
			} else {
				for g := range common {
					if !ei.guards[g] {
						delete(common, g)
					}
				}
			}
		}
		w.Guarded = len(common) > 0
		w.SingleThread = len(tids) == 1
		out = append(out, w)
	}
	for from, tos := range adj {
		for _, to := range tos {
			// 2-cycles.
			if hasEdge(a.edges, to, from) && from < to {
				emit([]uint64{from, to})
			}
			// 3-cycles.
			for _, third := range adj[to] {
				if third != from && hasEdge(a.edges, third, from) {
					emit([]uint64{from, to, third})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return fmt.Sprint(out[i].Cycle) < fmt.Sprint(out[j].Cycle)
	})
	return out
}

func hasEdge(edges map[edge]*edgeInfo, from, to uint64) bool {
	_, ok := edges[edge{from, to}]
	return ok
}

// Unguarded returns the warnings that can actually manifest: cycles with
// no common gate lock, produced by at least two threads.
func (a *Analyzer) Unguarded() []Warning {
	var out []Warning
	for _, w := range a.Warnings() {
		if !w.Guarded && !w.SingleThread {
			out = append(out, w)
		}
	}
	return out
}

// Events returns the number of events processed.
func (a *Analyzer) Events() int { return a.events }

// Analyze runs a fresh analyzer over a complete trace.
func Analyze(tr *trace.Trace) *Analyzer {
	a := New()
	for _, e := range tr.Events {
		a.Event(e)
	}
	return a
}

// ObserveBatch processes one batch of events in trace order; it
// implements sched.Observer.
func (a *Analyzer) ObserveBatch(batch []trace.Event) {
	for i := range batch {
		a.Event(batch[i])
	}
}
