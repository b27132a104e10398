// Package velodrome implements a Velodrome-style sound-and-complete
// dynamic atomicity checker (Flanagan, Freund & Yi, PLDI 2008): instead of
// Lipton reduction's pattern matching (the Atomizer approach in
// internal/atom), it builds the transactional happens-before graph of the
// execution — one node per atomic block instance, edges for inter-thread
// communication — and reports a violation exactly when that graph has a
// cycle, i.e. when some transaction is not serializable in this trace.
//
// Velodrome rounds out the checker comparison: Atomizer over-approximates
// (it may flag serializable executions), Velodrome is precise for the
// observed trace, and cooperability sits beside both with its yield-based
// specification. Comparing the three on the same traces reproduces the
// lineage the paper builds on.
//
// State layout follows the dense-checker design (DESIGN.md, "Analysis state
// layout"): nodes are values in one slice (ids are indices), successor
// edges live in a shared arena as per-node linked lists (the former
// per-node map allocated on every non-transactional event), per-thread
// open-node/depth/last-node state is TID-indexed, and the last-writer /
// last-readers / last-release communication indexes are paged tables keyed
// by the near-dense target ids. Violation output is byte-identical to the
// former map-based layout.
package velodrome

import (
	"fmt"

	"repro/internal/dense"
	"repro/internal/trace"
)

// node is one transaction instance (or a unary non-transactional event
// run). Node ids are indices into Checker.nodes.
// varComm is one variable's communication state: the last writer node and
// the reader nodes since that write (node ids stored +1; zero = none).
type varComm struct {
	write int32
	reads []int32
}

type node struct {
	tid   trace.TID
	start int   // first event index
	end   int   // last event index (-1 while open)
	inTx  bool  // true when this node is a declared atomic block
	edge  int32 // head of its successor list in Checker.edges; -1 = none
}

// edge is one successor-list cell in the shared edge arena.
type edge struct {
	to   int32
	next int32
}

// Violation reports a non-serializable transaction: a happens-before cycle
// through it.
type Violation struct {
	// Tid is the thread whose transaction is unserializable.
	Tid trace.TID
	// Start is the trace index where the transaction began.
	Start int
	// CycleLen is the length of the detected cycle (in transactions).
	CycleLen int
}

// String renders a compact description.
func (v Violation) String() string {
	return fmt.Sprintf("velodrome: transaction of T%d starting at #%d is unserializable (cycle of %d transactions)",
		v.Tid, v.Start, v.CycleLen)
}

// Options configures the checker.
type Options struct {
	// MethodsAtomic treats every method span as an atomic block, matching
	// atom.Options.MethodsAtomic for apples-to-apples comparison.
	MethodsAtomic bool
}

// Checker builds the transactional happens-before graph online and detects
// cycles at Report time. It implements sched.Observer.
type Checker struct {
	opts  Options
	nodes []node
	edges []edge
	// Per-thread state, indexed by TID. Node ids are stored +1 so the
	// zero value means "none".
	current  []int32 // open node per thread
	depth    []int32 // nesting depth of atomic regions per thread
	lastNode []int32 // last closed node per thread (fork/join edges)
	// Communication indexes, storing node ids +1 (zero = none). Lock and
	// variable ids are near-dense; runtime volatile ids (offset by 1<<32)
	// land in the tables' overflow maps.
	lastRelease  dense.Table[int32]
	lastVolWrite dense.Table[int32]
	// lastChan mirrors the symmetric chan happens-before model of the race
	// detectors: every send/recv/close on a channel is ordered after the
	// previous chan op on that channel (keyed by trace.ChanID), so each one
	// draws an edge from the last chan node and then records itself.
	lastChan dense.Table[int32]
	// vars holds per-variable communication state — the last writer node
	// and the reader nodes since that write — in ONE table slot, so the
	// access hot path pays a single paged lookup instead of two. Cleared
	// reader slices keep their storage for reuse.
	vars   dense.Table[varComm]
	events int
	blocks int

	// Flush high-water marks: what FlushMetrics already published, so
	// repeated flushes only add deltas. Behind a pointer (allocated by the
	// first flush) to keep the Checker in its 288-byte allocation class —
	// inlining the four ints measurably slows the per-event benchmarks.
	flushed *flushedCounts
}

// New returns an empty checker.
func New(opts Options) *Checker {
	return &Checker{opts: opts}
}

// growTID ensures the per-thread slices cover tid. The common no-grow case
// inlines to a single compare.
func (c *Checker) growTID(ti int) {
	if ti < len(c.current) {
		return
	}
	c.growTIDSlow(ti)
}

func (c *Checker) growTIDSlow(ti int) {
	n := ti + 1
	if n < cap(c.current) {
		c.current = c.current[:n]
		c.depth = c.depth[:n]
		c.lastNode = c.lastNode[:n]
		return
	}
	grow := func(s []int32) []int32 {
		g := make([]int32, n, 2*n)
		copy(g, s)
		return g
	}
	c.current = grow(c.current)
	c.depth = grow(c.depth)
	c.lastNode = grow(c.lastNode)
}

// cur returns the id of the open node for t, creating a non-transactional
// unary node if none is open.
func (c *Checker) cur(t trace.TID, idx int, inTx bool) int32 {
	ti := int(t)
	c.growTID(ti)
	if id := c.current[ti]; id != 0 {
		return id - 1
	}
	id := int32(len(c.nodes))
	c.nodes = append(c.nodes, node{tid: t, start: idx, end: -1, inTx: inTx, edge: -1})
	c.current[ti] = id + 1
	// Program order: previous node of this thread precedes this one.
	if prev := c.lastNode[ti]; prev != 0 {
		c.addEdge(prev-1, id)
	}
	return id
}

// closeNode ends the open node of t.
func (c *Checker) closeNode(t trace.TID, idx int) {
	ti := int(t)
	c.growTID(ti)
	id := c.current[ti]
	if id == 0 {
		return
	}
	c.nodes[id-1].end = idx
	c.lastNode[ti] = id
	c.current[ti] = 0
}

// addEdge adds from -> to (by node id), ignoring self-edges. Duplicate
// edges are tolerated: Tarjan visits each edge once, so duplicates cost a
// little memory but never extra traversal complexity — unlike the former
// per-node successor maps, which paid an allocation per node to dedup.
func (c *Checker) addEdge(from, to int32) {
	if from == to {
		return
	}
	n := &c.nodes[from]
	c.edges = append(c.edges, edge{to: to, next: n.edge})
	n.edge = int32(len(c.edges) - 1)
}

// Event processes one event in trace order.
func (c *Checker) Event(e trace.Event) {
	c.events++
	t := e.Tid

	enter := e.Op == trace.OpAtomicBegin || (c.opts.MethodsAtomic && e.Op == trace.OpEnter)
	exit := e.Op == trace.OpAtomicEnd || (c.opts.MethodsAtomic && e.Op == trace.OpExit)
	switch {
	case enter:
		c.growTID(int(t))
		if c.depth[t] == 0 {
			// Close any non-transactional run and open a transaction node.
			c.closeNode(t, e.Idx)
			id := c.cur(t, e.Idx, true)
			c.nodes[id].inTx = true
			c.blocks++
		}
		c.depth[t]++
		return
	case exit:
		c.growTID(int(t))
		if c.depth[t] > 0 {
			c.depth[t]--
			if c.depth[t] == 0 {
				c.closeNode(t, e.Idx)
			}
		}
		return
	}

	id := c.cur(t, e.Idx, false)

	switch e.Op {
	case trace.OpAcquire:
		if prev := *c.lastRelease.At(e.Target); prev != 0 {
			c.addEdge(prev-1, id)
		}
	case trace.OpRelease, trace.OpWait:
		*c.lastRelease.At(e.Target) = id + 1
	case trace.OpVolWrite:
		*c.lastVolWrite.At(e.Target) = id + 1
	case trace.OpVolRead:
		if prev := *c.lastVolWrite.At(e.Target); prev != 0 {
			c.addEdge(prev-1, id)
		}
	case trace.OpSend, trace.OpRecv, trace.OpClose:
		p := c.lastChan.At(trace.ChanID(e.Target))
		if prev := *p; prev != 0 {
			c.addEdge(prev-1, id)
		}
		*p = id + 1
	case trace.OpFork:
		// Edge from this node to the child's first node is created when
		// the child's first event arrives, via lastNode bootstrapping:
		// record ourselves as the child's predecessor.
		child := int(trace.TID(e.Target))
		c.growTID(child)
		c.lastNode[child] = id + 1
	case trace.OpJoin:
		child := int(trace.TID(e.Target))
		c.growTID(child)
		if prev := c.lastNode[child]; prev != 0 {
			c.addEdge(prev-1, id)
		}
	case trace.OpRead, trace.OpWrite:
		c.access(e, id)
	case trace.OpEnd:
		c.closeNode(t, e.Idx)
	}

	// Outside transactions, every event is its own unary node so that
	// non-transactional communication cannot fabricate cycles through an
	// artificial grouping.
	if !c.nodes[id].inTx {
		c.closeNode(t, e.Idx)
	}
}

// access applies the read/write communication rules to the open node id:
// write→read and write→write edges from the last writer, read→write edges
// from the readers since it. Shared between Event and the batch fast path.
func (c *Checker) access(e trace.Event, id int32) {
	v := c.vars.At(e.Target)
	if v.write != 0 {
		c.addEdge(v.write-1, id)
	}
	if e.Op == trace.OpRead {
		if !containsNode(v.reads, id) {
			v.reads = append(v.reads, id)
		}
		return
	}
	for _, r := range v.reads {
		c.addEdge(r, id)
	}
	v.reads = v.reads[:0] // clear, keeping storage
	v.write = id + 1
}

// FlightName names the checker's batch spans in flight recordings; it
// implements sched.FlightNamed.
func (c *Checker) FlightName() string { return "velodrome" }

// ObserveBatch processes one batch of events in trace order; it implements
// sched.Observer.
//
// An access by a thread with an open transactional node needs none of
// Event's node bookkeeping — the node stays open, no unary close — so it
// goes straight to the communication rules; everything else (structural
// events, accesses outside transactions) takes the full path.
func (c *Checker) ObserveBatch(batch []trace.Event) {
	for i := range batch {
		e := batch[i]
		if e.Op == trace.OpRead || e.Op == trace.OpWrite {
			if ti := int(e.Tid); ti < len(c.current) {
				if idp := c.current[ti]; idp != 0 && c.nodes[idp-1].inTx {
					c.events++
					c.access(e, idp-1)
					continue
				}
			}
		}
		c.Event(e)
	}
}

// containsNode reports whether id is already in the reader list; lists are
// short (cleared on every write), so a linear scan replaces the former
// per-variable set map.
func containsNode(rs []int32, id int32) bool {
	for _, r := range rs {
		if r == id {
			return true
		}
	}
	return false
}

// Violations finds unserializable transactions: transactional nodes lying
// on a cycle of the final graph (Tarjan SCC; any transactional node in a
// non-trivial SCC is a violation).
func (c *Checker) Violations() []Violation {
	// Close any still-open nodes.
	for ti := range c.current {
		if c.current[ti] != 0 {
			c.closeNode(trace.TID(ti), c.events)
		}
	}
	n := len(c.nodes)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	var counter int32
	sccID := make([]int32, n)
	var sccSize []int32

	// Iterative Tarjan to survive deep graphs; the successor iterator walks
	// the edge arena's linked list directly, so no adjacency slices are
	// built.
	type frame struct {
		v    int32
		iter int32 // next edge cell to visit, -1 when exhausted
	}
	for root := int32(0); root < int32(n); root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root, iter: c.nodes[root].edge}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.iter != -1 {
				cell := c.edges[f.iter]
				w := cell.to
				f.iter = cell.next
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, iter: c.nodes[w].edge})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				id := int32(len(sccSize))
				sccSize = append(sccSize, 0)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					sccID[w] = id
					sccSize[id]++
					if w == v {
						break
					}
				}
			}
		}
	}

	var out []Violation
	for i := range c.nodes {
		nd := &c.nodes[i]
		if !nd.inTx {
			continue
		}
		// Self-edges cannot exist (addEdge drops them), so a cycle means a
		// non-trivial SCC.
		if sz := sccSize[sccID[i]]; sz > 1 {
			out = append(out, Violation{Tid: nd.tid, Start: nd.start, CycleLen: int(sz)})
		}
	}
	return out
}

// Blocks returns the number of transaction instances observed.
func (c *Checker) Blocks() int { return c.blocks }

// Events returns the number of events processed.
func (c *Checker) Events() int { return c.events }

// Analyze runs a fresh checker over a complete trace and returns its
// violations.
func Analyze(tr *trace.Trace, opts Options) []Violation {
	c := New(opts)
	for _, e := range tr.Events {
		c.Event(e)
	}
	out := c.Violations()
	c.FlushMetrics(len(out))
	return out
}
