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
// per-node map allocated on every non-transactional event) that hold each
// (source, target) pair once (addEdge), per-thread open-node/depth/last-node
// state is TID-indexed, and the last-writer / last-release / last-chan
// communication indexes are paged tables keyed by the near-dense target
// ids, with each variable's readers in a shared arena. A checker taken
// with Borrow keeps all of that storage from one trace to the next.
// Violation output is byte-identical to the former map-based layout.
package velodrome

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/dense"
	"repro/internal/trace"
)

// varComm is one variable's communication state: the last writer node
// (id +1; zero = none) and the list of reader nodes since that write (the
// index +1 of its newest cell in Checker.readers; zero = empty).
type varComm struct {
	write int32
	reads int32
}

// reader is one reader-list cell in the shared reader arena.
type reader struct {
	node int32
	next int32 // index +1 of the next older cell; zero ends the list
}

// node is one transaction instance (or a unary non-transactional event
// run). Node ids are indices into Checker.nodes.
type node struct {
	start int // first event index
	// linked has bit t set while this node has an edge into thread t's
	// open node (t < 64; see addEdge).
	linked uint64
	tid    trace.TID
	edge   int32 // head of its successor list in Checker.edges; -1 = none
	inTx   bool  // true when this node is a declared atomic block
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
// cycles when Violations is called. It implements sched.Observer.
type Checker struct {
	opts  Options
	nodes []node
	edges []edge
	// Per-thread state, indexed by TID. Node ids are stored +1 so the
	// zero value means "none".
	current  []int32 // open node per thread
	depth    []int32 // nesting depth of atomic regions per thread
	lastNode []int32 // last closed node per thread (fork/join edges)
	// into lists, per thread, the sources of the edges into its open node
	// (plain node ids), so that closing the node can clear their linked
	// bits.
	into [][]int32
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
	// access hot path pays a single paged lookup instead of two. The
	// reader lists live in one arena, so a slot holds no pointer; a write
	// moves its variable's cells to the free list (head index +1 in
	// free), which later reads take from first.
	vars    dense.Table[varComm]
	readers []reader
	free    int32
	events  int
	blocks  int

	// index and low are Tarjan's per-node scratch, kept for the next
	// Violations; frames and stack are its work lists.
	index, low []int32
	frames     []frame
	stack      []int32

	// flushed is what FlushMetrics already published, so repeated flushes
	// only add deltas.
	flushed flushedCounts
}

// New returns an empty checker.
func New(opts Options) *Checker {
	return &Checker{opts: opts}
}

// pool holds the checkers Borrow hands out.
var pool = sync.Pool{New: func() any { return new(Checker) }}

// Borrow returns an empty checker, as New does, taken from a pool: its
// graph arenas, per-thread slices, communication tables and Tarjan scratch
// keep the storage an earlier trace grew them to, so a caller that
// analyzes one trace after another allocates them once. Read its results,
// Violations and FlushMetrics included, then hand it back with Release.
func Borrow(opts Options) *Checker {
	c := pool.Get().(*Checker)
	c.opts = opts
	return c
}

// Release empties c and returns it to Borrow's pool. c must not be used
// afterwards; the Violations it returned stay valid.
func (c *Checker) Release() {
	c.reset()
	pool.Put(c)
}

// reset returns c to the state New leaves it in, keeping its storage. Its
// cost is what the last trace touched: the graph arenas are truncated, the
// per-thread slices cleared up to the threads it named, and each table
// zeroes only its slots below the largest key the trace wrote
// (dense.Table.Clear).
func (c *Checker) reset() {
	clear(c.current)
	clear(c.depth)
	clear(c.lastNode)
	for i := range c.into {
		c.into[i] = c.into[i][:0]
	}
	c.lastRelease.Clear()
	c.lastVolWrite.Clear()
	c.lastChan.Clear()
	c.vars.Clear()
	*c = Checker{
		nodes:        c.nodes[:0],
		edges:        c.edges[:0],
		current:      c.current[:0],
		depth:        c.depth[:0],
		lastNode:     c.lastNode[:0],
		into:         c.into[:0],
		lastRelease:  c.lastRelease,
		lastVolWrite: c.lastVolWrite,
		lastChan:     c.lastChan,
		vars:         c.vars,
		readers:      c.readers[:0],
		index:        c.index,
		low:          c.low,
		frames:       c.frames[:0],
		stack:        c.stack[:0],
	}
}

// growTID ensures the per-thread slices cover tid. The common no-grow case
// inlines to a single compare.
func (c *Checker) growTID(ti int) {
	if ti < len(c.current) {
		return
	}
	c.growTIDSlow(ti)
}

// growTIDSlow extends the per-thread slices to cover ti. Past their length
// they are zero: fresh, or cleared by reset.
func (c *Checker) growTIDSlow(ti int) {
	n := ti + 1
	c.current = extend(c.current, n)
	c.depth = extend(c.depth, n)
	c.lastNode = extend(c.lastNode, n)
	c.into = extend(c.into, n)
}

func extend[E any](s []E, n int) []E {
	if n <= cap(s) {
		return s[:n]
	}
	g := make([]E, n, 2*n)
	copy(g, s)
	return g
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
	c.nodes = append(c.nodes, node{tid: t, start: idx, inTx: inTx, edge: -1})
	c.current[ti] = id + 1
	// Program order: previous node of this thread precedes this one.
	if prev := c.lastNode[ti]; prev != 0 {
		c.addEdge(prev-1, id, ti)
	}
	return id
}

// closeNode ends the open node of t, forgetting which sources link into
// it: no edge into a closed node is ever added.
func (c *Checker) closeNode(t trace.TID) {
	ti := int(t)
	c.growTID(ti)
	id := c.current[ti]
	if id == 0 {
		return
	}
	if len(c.into[ti]) > 0 {
		if ti < 64 {
			for _, s := range c.into[ti] {
				c.nodes[s].linked &^= 1 << ti
			}
		}
		c.into[ti] = c.into[ti][:0]
	}
	c.lastNode[ti] = id
	c.current[ti] = 0
}

// addEdge adds from -> to, where to is the node open on thread ti, unless
// it is a self-edge or already in the graph. Every edge points into the
// node open on the thread whose event draws it, so an edge can repeat only
// while its target is open, and into[ti] lists the sources that already
// link into it; a source's linked bit answers membership in O(1). Most
// edges repeat a pair: a transaction that reads many variables one node
// wrote draws that edge once per read. Threads from the 64th on, which
// have no bit, scan into[ti] instead.
func (c *Checker) addEdge(from, to int32, ti int) {
	if from == to {
		return
	}
	n := &c.nodes[from]
	if ti < 64 {
		bit := uint64(1) << ti
		if n.linked&bit != 0 {
			return
		}
		n.linked |= bit
	} else if slices.Contains(c.into[ti], from) {
		return
	}
	c.into[ti] = append(c.into[ti], from)
	c.edges = append(c.edges, edge{to: to, next: n.edge})
	n.edge = int32(len(c.edges) - 1)
}

// Event processes one event in trace order.
func (c *Checker) Event(e trace.Event) {
	c.events++
	t := e.Tid
	ti := int(t)

	enter := e.Op == trace.OpAtomicBegin || (c.opts.MethodsAtomic && e.Op == trace.OpEnter)
	exit := e.Op == trace.OpAtomicEnd || (c.opts.MethodsAtomic && e.Op == trace.OpExit)
	switch {
	case enter:
		c.growTID(ti)
		if c.depth[t] == 0 {
			// Close any non-transactional run and open a transaction node.
			c.closeNode(t)
			c.cur(t, e.Idx, true)
			c.blocks++
		}
		c.depth[t]++
		return
	case exit:
		c.growTID(ti)
		if c.depth[t] > 0 {
			c.depth[t]--
			if c.depth[t] == 0 {
				c.closeNode(t)
			}
		}
		return
	}

	id := c.cur(t, e.Idx, false)

	switch e.Op {
	case trace.OpAcquire:
		if prev := *c.lastRelease.At(e.Target); prev != 0 {
			c.addEdge(prev-1, id, ti)
		}
	case trace.OpRelease, trace.OpWait:
		*c.lastRelease.At(e.Target) = id + 1
	case trace.OpVolWrite:
		*c.lastVolWrite.At(e.Target) = id + 1
	case trace.OpVolRead:
		if prev := *c.lastVolWrite.At(e.Target); prev != 0 {
			c.addEdge(prev-1, id, ti)
		}
	case trace.OpSend, trace.OpRecv, trace.OpClose:
		p := c.lastChan.At(trace.ChanID(e.Target))
		if prev := *p; prev != 0 {
			c.addEdge(prev-1, id, ti)
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
			c.addEdge(prev-1, id, ti)
		}
	case trace.OpRead, trace.OpWrite:
		c.access(e, id)
	case trace.OpEnd:
		c.closeNode(t)
	}

	// Outside transactions, every event is its own unary node so that
	// non-transactional communication cannot fabricate cycles through an
	// artificial grouping.
	if !c.nodes[id].inTx {
		c.closeNode(t)
	}
}

// access applies the read/write communication rules to the open node id:
// write→read and write→write edges from the last writer, read→write edges
// from the readers since it. Shared between Event and the batch fast path.
func (c *Checker) access(e trace.Event, id int32) {
	ti := int(e.Tid)
	v := c.vars.At(e.Target)
	if v.write != 0 {
		c.addEdge(v.write-1, id, ti)
	}
	if e.Op == trace.OpRead {
		for i := v.reads; i != 0; i = c.readers[i-1].next {
			if c.readers[i-1].node == id {
				return
			}
		}
		cell := reader{node: id, next: v.reads}
		if i := c.free; i != 0 {
			c.free = c.readers[i-1].next
			c.readers[i-1] = cell
			v.reads = i
		} else {
			c.readers = append(c.readers, cell)
			v.reads = int32(len(c.readers))
		}
		return
	}
	for i := v.reads; i != 0; {
		r := &c.readers[i-1]
		c.addEdge(r.node, id, ti)
		if i = r.next; i == 0 {
			r.next, c.free = c.free, v.reads
		}
	}
	v.reads = 0
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

// frame is one node of Tarjan's depth-first walk and the next cell of its
// successor list to visit (-1 when exhausted).
type frame struct {
	v    int32
	iter int32
}

// Violations finds unserializable transactions: transactional nodes lying
// on a cycle of the final graph (Tarjan SCC; any transactional node in a
// non-trivial SCC is a violation).
func (c *Checker) Violations() []Violation {
	// Close any still-open nodes.
	for ti := range c.current {
		if c.current[ti] != 0 {
			c.closeNode(trace.TID(ti))
		}
	}
	n := len(c.nodes)
	c.index = extend(c.index[:0], n)
	c.low = extend(c.low[:0], n)
	index, low := c.index, c.low
	for i := range index {
		index[i] = -1
	}
	stack, frames := c.stack[:0], c.frames[:0]
	var counter int32

	// Iterative Tarjan to survive deep graphs; the successor iterator walks
	// the edge arena's linked list directly, so no adjacency slices are
	// built. A node is on the stack while its low link is non-negative;
	// popping its component stores the component's size there, negated.
	for root := int32(0); root < int32(n); root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{v: root, iter: c.nodes[root].edge})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
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
					frames = append(frames, frame{v: w, iter: c.nodes[w].edge})
				} else if low[w] >= 0 && index[w] < low[f.v] {
					low[f.v] = index[w]
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
				k := len(stack) - 1
				for stack[k] != v {
					k--
				}
				size := int32(len(stack) - k)
				for _, w := range stack[k:] {
					low[w] = -size
				}
				stack = stack[:k]
			}
		}
	}
	c.stack, c.frames = stack, frames

	var out []Violation
	for i := range c.nodes {
		nd := &c.nodes[i]
		if !nd.inTx {
			continue
		}
		// Self-edges cannot exist (addEdge drops them), so a cycle means a
		// non-trivial SCC.
		if sz := -low[i]; sz > 1 {
			out = append(out, Violation{Tid: nd.tid, Start: nd.start, CycleLen: int(sz)})
		}
	}
	return out
}

// Blocks returns the number of transaction instances observed.
func (c *Checker) Blocks() int { return c.blocks }

// Events returns the number of events processed.
func (c *Checker) Events() int { return c.events }

// Analyze runs a checker over a complete trace and returns its
// violations. The checker is borrowed and released (Borrow), so analyzing
// one trace after another reuses its storage.
func Analyze(tr *trace.Trace, opts Options) []Violation {
	c := Borrow(opts)
	for _, e := range tr.Events {
		c.Event(e)
	}
	out := c.Violations()
	c.FlushMetrics(len(out))
	c.Release()
	return out
}
